/**
 * @file
 * Host-side microbenchmark of the simulators themselves: how much
 * wall-clock time each Table-3 cell costs to simulate. These numbers
 * do not reproduce the paper; they document the cost of running the
 * study and feed the advisory host-time comparison in bench_diff.
 *
 * Every cell's mapping runs under the repeated-measurement contract
 * (sim/host_clock.hh): --warmup unmeasured iterations, --reps
 * measured ones, optional --pin core pinning (exit 2 when the pin
 * fails), robust statistics.
 * Default output is a human-readable table; --grid prints only the
 * one-line grid summary, and --json emits the full
 * triarch.results.v2 document (simulated cells + host block) on
 * stdout instead of either.
 *
 * Flags parse in study::parseMicroHostArgs (exit 2 on a bad flag,
 * like every other gate-style tool here). --machines and --kernels
 * narrow the grid, so a Raw-ct-only A/B measures just that cell.
 */

#include <cstdio>
#include <iostream>

#include "sim/host_clock.hh"
#include "study/host_measure.hh"
#include "study/machine_info.hh"
#include "study/parallel.hh"

using namespace triarch;
using namespace triarch::study;

int
main(int argc, char **argv)
{
    MicroHostArgs args;
    if (const auto rc = parseMicroHostArgs(argc, argv, &args))
        return *rc;
    // An unpinned run under --pin would report numbers the caller
    // believes pinned; refuse before measuring anything.
    if (args.measure.pinCpu >= 0 && !host::pinToCpu(args.measure.pinCpu)) {
        std::fprintf(stderr, "micro_host: cannot pin to CPU %d\n",
                     args.measure.pinCpu);
        return 2;
    }

    StudyConfig cfg;
    cfg.seed = args.seed;
    const HostSection host =
        measureHostSection(cfg, args.cells, args.measure);

    if (args.json) {
        // One more simulated run per cell for the cycle half of
        // the document (the host block above keeps only timings).
        ParallelRunner runner(cfg, 1);
        ResultSink sink(cfg);
        sink.metadata("bench", "micro_host");
        sink.add(runner.runCells(args.cells));
        sink.host(host);
        sink.writeJson(std::cout);
        return 0;
    }

    if (args.grid) {
        double sumNs = 0.0;
        for (const HostCellTiming &cell : host.cells)
            sumNs += cell.medianNs;
        std::printf("grid %zu cells, median sum %.1f ms, "
                    "%.2f cells/sec\n",
                    host.cells.size(), sumNs / 1e6, host.cellsPerSec);
        return 0;
    }

    std::printf("host time per simulated cell (seed %llu, %llu reps"
                ", warmup %llu%s)\n",
                static_cast<unsigned long long>(args.seed),
                static_cast<unsigned long long>(host.repetitions),
                static_cast<unsigned long long>(host.warmup),
                host.pinned ? ", pinned" : "");
    std::printf("%-12s %-6s %12s %12s %12s %12s\n", "machine",
                "kernel", "median(ms)", "p95(ms)", "min(ms)",
                "stddev(ms)");
    for (const HostCellTiming &cell : host.cells) {
        std::printf("%-12s %-6s %12.3f %12.3f %12.3f %12.3f\n",
                    machineToken(cell.machine).c_str(),
                    kernelToken(cell.kernel).c_str(),
                    cell.medianNs / 1e6, cell.p95Ns / 1e6,
                    cell.minNs / 1e6, cell.stddevNs / 1e6);
    }
    std::printf("grid throughput at the medians: %.2f cells/sec\n",
                host.cellsPerSec);
    std::printf("peak RSS: %.1f MiB\n",
                static_cast<double>(host::peakRssBytes())
                    / (1024.0 * 1024.0));
    return 0;
}
