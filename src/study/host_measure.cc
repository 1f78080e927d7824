#include "host_measure.hh"

#include <algorithm>
#include <limits>

#include "study/cli_options.hh"
#include "study/machine_info.hh"
#include "study/registry.hh"

namespace triarch::study
{

HostSection
measureHostSection(const StudyConfig &cfg,
                   const std::vector<Cell> &cells,
                   const host::MeasureOptions &opts)
{
    const auto work = buildWorkloads(cfg);

    HostSection section;
    section.warmup = opts.warmup;
    section.repetitions = std::max(opts.repetitions, 1u);

    // Pin once for the whole sweep; per-cell measureRepeated calls
    // then skip the pin (already effective for this thread).
    bool pinned = false;
    if (opts.pinCpu >= 0)
        pinned = host::pinToCpu(opts.pinCpu);
    section.pinned = pinned;
    host::MeasureOptions cellOpts = opts;
    cellOpts.pinCpu = -1;

    double medianSumNs = 0.0;
    for (const Cell &cell : cells) {
        const KernelMapping &mapping =
            MappingRegistry::builtin().at(cell.machine, cell.kernel);
        const host::Measurement m = host::measureRepeated(
            cellOpts, [&] { (void)mapping(cfg, *work); });

        HostCellTiming timing;
        timing.machine = cell.machine;
        timing.kernel = cell.kernel;
        timing.medianNs = m.stats.medianNs;
        timing.p95Ns = m.stats.p95Ns;
        timing.minNs = m.stats.minNs;
        timing.stddevNs = m.stats.stddevNs;
        section.cells.push_back(timing);
        medianSumNs += m.stats.medianNs;
    }
    if (medianSumNs > 0.0) {
        section.cellsPerSec =
            static_cast<double>(section.cells.size()) * 1e9
            / medianSumNs;
    }
    return section;
}

std::optional<int>
parseMicroHostArgs(int argc, char **argv, MicroHostArgs *args)
{
    CliOptions cli("Measure the host wall-clock cost of simulating "
                   "each Table-3 cell",
                   "micro_host");
    cli.number("--seed", "N", "workload synthesis seed (default 11)",
               std::numeric_limits<std::uint64_t>::max(),
               [args](std::uint64_t n) {
                   args->seed = n;
                   return 0;
               });
    cli.number("--warmup", "N",
               "unmeasured iterations per cell (default 1)",
               std::numeric_limits<unsigned>::max(),
               [args](std::uint64_t n) {
                   args->measure.warmup = static_cast<unsigned>(n);
                   return 0;
               });
    cli.number("--reps", "N",
               "measured iterations per cell (default 5; the "
               "measurement contract wants 30+)",
               std::numeric_limits<unsigned>::max(),
               [args](std::uint64_t n) {
                   args->measure.repetitions = static_cast<unsigned>(n);
                   return 0;
               });
    cli.number("--pin", "N",
               "pin the measurement to core N (exit 2 if it cannot)",
               4095,
               [args](std::uint64_t n) {
                   args->measure.pinCpu = static_cast<int>(n);
                   return 0;
               });
    cli.toggle("--json",
               "emit a triarch.results.v2 document with a host block "
               "on stdout instead of the table",
               [args]() {
                   args->json = true;
                   return 0;
               });
    std::vector<MachineId> machines;
    std::vector<KernelId> kernels;
    cli.selectionFlags(machines, kernels);
    cli.toggle("--grid",
               "print only the one-line grid summary (median sum and "
               "cells/sec) instead of the table",
               [args]() {
                   args->grid = true;
                   return 0;
               });
    cli.logLevelFlag();
    if (const auto rc = cli.parse(argc, argv))
        return rc;
    args->cells = selectCells(machines, kernels);
    return std::nullopt;
}

} // namespace triarch::study
