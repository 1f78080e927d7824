/**
 * @file
 * Differential config-fuzz sweep (DESIGN.md D8): enumerate boundary
 * and seeded random workload shapes, validate each against the
 * ConfigValidator's rules, and run every valid config on every
 * selected (machine, kernel) cell both serially and through the
 * ParallelRunner. All four architectures must validate against the
 * reference outputs and agree bit-for-bit with the serial runner;
 * any disagreement is minimized and printed as a reproducible
 * StudyConfig with its studyConfigHash. Exits nonzero if the sweep
 * found a failure.
 *
 * --seed steers the random half of the sweep, --threads the
 * parallel half of each comparison, and --machines/--kernels
 * restrict the cells compared. --hw and --stats exit 2 before
 * anything runs: those documents label a cell by machine and kernel
 * alone and carry one config hash, so a sweep over many configs
 * would write the last config's counters under the paper config's
 * label.
 */

#include <iostream>
#include <utility>

#include "bench_main.hh"
#include "study/fuzz.hh"

using namespace triarch;
using study::FuzzOptions;
using study::FuzzReport;

namespace
{

int
run(bench::BenchContext &ctx)
{
    const bench::BenchOptions &given = ctx.options();
    for (const auto &[flag, path] : {std::pair{"--hw", given.hwPath},
                                     {"--stats", given.statsPath}}) {
        if (!path.empty()) {
            std::cerr << given.prog << ": " << flag
                      << " is not supported: the sweep runs many "
                         "configs per cell and the document labels "
                         "cells by machine and kernel only\n";
            return 2;
        }
    }

    FuzzOptions opts;
    opts.seed = ctx.options().seed;
    opts.threads = ctx.options().threads;
    opts.cells = ctx.selectedCells();

    std::cout << "fuzzing " << opts.cells.size()
              << " cells per config (seed " << opts.seed << ", "
              << opts.randomConfigs << " random configs + boundary "
              << "set)...\n\n";

    const FuzzReport report = study::runDifferentialFuzz(opts);

    std::cout << "rejected " << report.rejected.size() << " of "
              << report.configs.size()
              << " configs (each with a typed ConfigError):\n";
    for (const study::FuzzRejection &r : report.rejected)
        std::cout << "  " << describe(r.error) << "\n";

    const std::size_t valid =
        report.configs.size() - report.rejected.size();
    std::cout << "\nchecked " << valid << " valid configs, "
              << report.cellsChecked
              << " serial/parallel cell pairs: "
              << report.failures.size() << " disagreements\n";

    for (const study::FuzzFailure &f : report.failures) {
        std::cout << "\nFAILURE: " << f.detail
                  << "\n  reproducer: " << describeConfig(f.config)
                  << "\n";
    }
    return report.clean() ? 0 : 1;
}

} // namespace

TRIARCH_BENCH_MAIN("differential config fuzz across the simulators",
                   run)
