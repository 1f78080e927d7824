/**
 * @file
 * Measures the experiment engine's scaling on the full 15-cell
 * Table-3 sweep: wall-clock for ParallelRunner at one thread (every
 * mapping inline on the calling thread), at the requested thread
 * count, and for a cache-served re-run — while asserting the
 * multi-threaded results are bit-identical to the one-thread ones
 * cell for cell.
 */

#include <chrono>
#include <iostream>
#include <thread>

#include "bench_main.hh"
#include "sim/logging.hh"
#include "sim/table.hh"

using namespace triarch;
using namespace triarch::study;

namespace
{

double
msSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

int
run(bench::BenchContext &ctx)
{
    unsigned threads = ctx.options().threads;
    if (threads == 0) {
        threads = std::thread::hardware_concurrency();
        if (threads == 0)
            threads = 4;
    }

    std::cout << "Timing the 15-cell Table-3 sweep (1 thread vs "
              << threads << " worker threads)...\n";

    auto t0 = std::chrono::steady_clock::now();
    // A temporary, so the scheduler counts captured for --stats are
    // the multi-threaded runner's below.
    auto serialResults = ParallelRunner(ctx.config(), 1).runAll();
    const double serialMs = msSince(t0);

    // Private cache: the cold pass below must actually compute.
    ResultCache cache;
    ParallelRunner par(ctx.config(), threads, nullptr, &cache);
    t0 = std::chrono::steady_clock::now();
    auto parResults = par.runAll();
    const double parMs = msSince(t0);

    t0 = std::chrono::steady_clock::now();
    auto cachedResults = par.runAll();
    const double cachedMs = msSince(t0);

    triarch_assert(serialResults == parResults,
                   "parallel results differ from serial results");
    triarch_assert(parResults == cachedResults,
                   "cache-served results differ from computed ones");

    Table t("Table-3 sweep wall clock (host milliseconds)");
    t.header({"Engine", "Wall ms", "Speedup vs 1 thread"});
    t.row({"ParallelRunner, 1 thread", Table::num(serialMs, 1),
           "1.00"});
    t.row({"ParallelRunner, " + std::to_string(threads) + " threads",
           Table::num(parMs, 1), Table::num(serialMs / parMs, 2)});
    t.row({"ParallelRunner, cache-served re-run",
           Table::num(cachedMs, 3),
           Table::num(serialMs / std::max(cachedMs, 1e-6), 0)});
    t.render(std::cout);

    // The determinism claim extends to the cycle accounts: the
    // breakdowns above compared bit-for-bit too (RunResult::operator==
    // includes them), so print where the cycles went per cell.
    Table acct("Cycle account per cell (% of cell cycles)");
    std::vector<std::string> header = {"Machine", "Kernel", "Cycles"};
    for (const auto cat : stats::allCycleCategories())
        header.push_back(stats::cycleCategoryToken(cat));
    acct.header(header);
    for (const RunResult &r : parResults) {
        std::vector<std::string> row = {
            machineName(r.machine), kernelName(r.kernel),
            std::to_string(r.cycles)};
        for (const auto cat : stats::allCycleCategories())
            row.push_back(Table::num(100.0 * r.breakdown.fraction(cat),
                                     1));
        acct.row(row);
    }
    std::cout << "\n";
    acct.render(std::cout);

    std::cout << "\nAll " << parResults.size()
              << " parallel cells are bit-identical to the one-thread "
                 "sweep; the re-run was\nserved entirely from the "
                 "result cache ("
              << cache.hits() << " hits).\n\n";
    cache.statGroup().dump(std::cout);
    par.statGroup().dump(std::cout);

    const unsigned cores = std::thread::hardware_concurrency();
    std::cout << "Host reports " << cores
              << " hardware thread(s); CPU-bound cells cannot beat "
                 "serial wall clock\nwith fewer cores than workers.\n";

    ctx.sink().add(parResults);
    ctx.sink().metadata("serial_ms", Table::num(serialMs, 1));
    ctx.sink().metadata("parallel_ms", Table::num(parMs, 1));
    return 0;
}

} // namespace

TRIARCH_BENCH_MAIN(
    "serial vs parallel Table-3 sweep wall-clock comparison", run)
