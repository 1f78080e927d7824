#include "bench_main.hh"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>

#include "sim/host_clock.hh"
#include "sim/hw_report.hh"
#include "sim/metrics.hh"
#include "sim/trace.hh"
#include "study/cli_options.hh"
#include "study/registry.hh"
#include "study/study_json.hh"

namespace triarch::bench
{

BenchContext::BenchContext(BenchOptions run_options)
    : opts(std::move(run_options))
{
    if (opts.machines.empty())
        opts.machines = study::allMachines();
    if (opts.kernels.empty())
        opts.kernels = study::allKernels();
    cfg.seed = opts.seed;
}

BenchContext::~BenchContext()
{
    // The runner's scheduler group is captured when it dies; the
    // cache's final counts go next to it for --stats.
    if (par) {
        metrics::MetricsRegistry::global().capture(memo.statGroup(),
                                                   "result_cache");
    }
}

study::ParallelRunner &
BenchContext::runner()
{
    if (!par) {
        par = std::make_unique<study::ParallelRunner>(
            cfg, opts.threads, nullptr, &memo);
    }
    return *par;
}

std::vector<study::Cell>
BenchContext::selectedCells() const
{
    return study::selectCells(opts.machines, opts.kernels);
}

const std::vector<study::RunResult> &
BenchContext::results()
{
    if (!haveResults) {
        cellResults = runner().runCells(selectedCells());
        sink().add(cellResults);
        haveResults = true;
    }
    return cellResults;
}

const std::vector<study::RunResult> &
BenchContext::allResults()
{
    if (!haveGrid) {
        const auto covers = [](const auto &selected, const auto &all) {
            return std::ranges::all_of(all, [&](auto id) {
                return std::ranges::find(selected, id) != selected.end();
            });
        };
        if (!covers(opts.machines, study::allMachines())
            || !covers(opts.kernels, study::allKernels())) {
            std::cerr << opts.prog
                      << ": this bench needs the full 5x3 grid; "
                         "--machines/--kernels cannot narrow it\n";
            std::exit(2);
        }
        gridResults = runner().runAll();
        sink().add(gridResults);
        haveGrid = true;
    }
    return gridResults;
}

study::ResultSink &
BenchContext::sink()
{
    if (!out)
        out = std::make_unique<study::ResultSink>(cfg);
    return *out;
}

int
benchMain(int argc, char **argv, const char *description,
          BenchBody body)
{
    BenchOptions opts;
    study::CliOptions cli(description);

    cli.selectionFlags(opts.machines, opts.kernels);
    // 0 stays valid (hardware concurrency, as documented in --help);
    // the cap stops silent 32-bit truncation.
    cli.number("--threads", "N",
               "worker threads (default 0 = hardware concurrency)",
               std::numeric_limits<unsigned>::max(),
               [&](std::uint64_t n) {
                   opts.threads = static_cast<unsigned>(n);
                   return 0;
               });
    cli.number("--seed", "N", "workload synthesis seed (default 11)",
               std::numeric_limits<std::uint64_t>::max(),
               [&](std::uint64_t n) {
                   opts.seed = n;
                   return 0;
               });
    cli.value("--json", "PATH",
              "write a triarch.results.v2 results document",
              [&](const std::string &v) {
                  opts.jsonPath = v;
                  return 0;
              });
    cli.toggle("--csv",
               "machine-readable table output where supported",
               [&]() {
                   opts.csv = true;
                   return 0;
               });
    cli.value("--trace", "PATH",
              "write a Chrome trace-event JSON timeline "
              "(chrome://tracing, Perfetto)",
              [&](const std::string &v) {
                  opts.tracePath = v;
                  return 0;
              });
    cli.value("--stats", "PATH",
              "write a triarch.stats.v1 counters document",
              [&](const std::string &v) {
                  opts.statsPath = v;
                  return 0;
              });
    cli.value("--hw", "PATH",
              "write a triarch.hw.v1 per-cell utilization report "
              "(hit rates, epoch timelines, bottleneck verdicts)",
              [&](const std::string &v) {
                  opts.hwPath = v;
                  return 0;
              });
    cli.toggle("--host-stats",
               "record each cell's host ns (setup, run, readback) "
               "into the --stats document",
               [&]() {
                   opts.hostStats = true;
                   return 0;
               });
    cli.logLevelFlag();

    if (const auto rc = cli.parse(argc, argv))
        return *rc;
    const char *prog = cli.prog();
    opts.prog = prog;
    if (opts.hostStats && opts.statsPath.empty()) {
        std::cerr << prog << ": --host-stats needs --stats PATH\n";
        return 2;
    }

    study::ensureParentDir("--json", opts.jsonPath, prog);
    study::ensureParentDir("--trace", opts.tracePath, prog);
    study::ensureParentDir("--stats", opts.statsPath, prog);
    study::ensureParentDir("--hw", opts.hwPath, prog);

    if (opts.hostStats)
        host::setProfiling(true);

    // The session must outlive the context: the runner's worker
    // threads (and their buffered events) drain in ~BenchContext.
    std::unique_ptr<trace::TraceSession> session;
    if (!opts.tracePath.empty()) {
        session = std::make_unique<trace::TraceSession>();
        session->start();
    }

    int rc;
    {
        BenchContext ctx(opts);
        rc = body(ctx);

        // A document flag on a body that ran no cell would write an
        // empty document and exit 0: a usage error instead.
        const auto noCells = [&](const char *flag) {
            std::cerr << prog << ": " << flag
                      << " has nothing to write: this bench records "
                         "no cells\n";
            rc = 2;
        };
        if (rc == 0 && !opts.jsonPath.empty() && ctx.sink().size() == 0)
            noCells("--json");
        const bool ranCells = hw::HwRegistry::global().size() != 0;
        if (rc == 0 && !opts.hwPath.empty() && !ranCells)
            noCells("--hw");
        if (rc == 0 && !opts.statsPath.empty() && !ranCells)
            noCells("--stats");

        if (rc == 0 && !opts.jsonPath.empty()) {
            ctx.sink().metadata("bench", prog);
            ctx.sink().metadata("threads",
                                std::to_string(opts.threads));
            ctx.sink().writeJsonFile(opts.jsonPath);
            std::cout << "\nresults written to " << opts.jsonPath
                      << "\n";
        }
        if (rc == 0 && !opts.hwPath.empty()) {
            // Snapshot of every cell the body ran; label-sorted, so
            // the bytes are independent of threads and run order.
            const hw::HwReport report = hw::HwRegistry::global().report(
                study::studyConfigHashHex(ctx.config()));
            std::ofstream os(opts.hwPath,
                             std::ios::binary | std::ios::trunc);
            writeHwReport(os, report);
            if (!os) {
                std::cerr << prog << ": cannot write " << opts.hwPath
                          << "\n";
                rc = 1;
            } else {
                std::cout << "hw report written to " << opts.hwPath
                          << "\n";
            }
        }
    }

    // Write the trace even when the body failed — a timeline of the
    // run that went wrong is exactly what a trace is for.
    if (session) {
        session->stop();
        session->writeJsonFile(opts.tracePath);
        std::cout << "trace written to " << opts.tracePath;
        if (rc != 0)
            std::cout << " (bench body failed with exit code " << rc
                      << ")";
        std::cout << "\n";
    }
    if (rc == 0 && !opts.statsPath.empty()) {
        metrics::MetricsRegistry::global().writeJsonFile(
            opts.statsPath);
        std::cout << "stats written to " << opts.statsPath << "\n";
    }
    return rc;
}

} // namespace triarch::bench
