/**
 * @file
 * Regenerates Table 3: measured kernel cycles for all five platforms
 * on the paper's workloads (corner turn 1024x1024x4B; CSLC 4
 * channels x 8K samples in 73 x 128-point sub-bands; beam steering
 * 1608 elements x 4 directions x 8 dwells), and prints the measured
 * values against the paper's for every cell. --machines/--kernels
 * narrow both the table and the work to the selected cells.
 */

#include <algorithm>
#include <iostream>

#include "bench_main.hh"
#include "study/bench_report.hh"
#include "study/report.hh"

using namespace triarch;
using namespace triarch::study;

namespace
{

int
run(bench::BenchContext &ctx)
{
    const auto &results = ctx.results();
    const auto &opts = ctx.options();
    const Table table3 = buildTable3(results, opts.machines, opts.kernels);

    // --csv emits machine-readable output for plotting scripts.
    if (opts.csv) {
        table3.renderCsv(std::cout);
        return 0;
    }

    table3.render(std::cout);

    Table cmp("Measured vs paper (cycles in 10^3)");
    cmp.header({"Machine", "Kernel", "Paper", "Measured",
                "Measured/Paper"});
    for (MachineId machine : opts.machines) {
        for (KernelId kernel : opts.kernels) {
            const auto &r = findResult(results, machine, kernel);
            const double paper = paperTable3Kcycles(machine, kernel);
            const double measured =
                static_cast<double>(r.cycles) / 1000.0;
            cmp.row({machineName(machine), kernelName(kernel),
                     Table::num(paper, 0), Table::num(measured, 0),
                     Table::num(measured / paper, 2)});
        }
    }
    std::cout << "\n";
    cmp.render(std::cout);

    const auto rawCslcCell = std::find_if(
        results.begin(), results.end(), [](const RunResult &r) {
            return r.machine == MachineId::Raw
                   && r.kernel == KernelId::Cslc;
        });
    if (rawCslcCell != results.end()
        && rawCslcCell->measuredUnbalanced) {
        std::cout << "\nRaw CSLC: measured "
                  << Table::num(*rawCslcCell->measuredUnbalanced / 1000)
                  << "k cycles with the 73-on-16 imbalance; Table 3 "
                     "reports the paper's\nperfect-load-balance "
                     "extrapolation of "
                  << Table::num(rawCslcCell->cycles / 1000)
                  << "k (Section 4.3).\n";
    }
    return 0;
}

} // namespace

TRIARCH_BENCH_MAIN("Table 3: measured kernel cycles vs the paper", run)
