/**
 * @file
 * Quickstart: run one kernel on every platform and print the cycle
 * counts side by side.
 *
 * This is the smallest complete use of the public API: build a
 * ParallelRunner with a workload configuration (one thread is
 * plenty here), ask it for (machine, kernel) measurements, and read
 * cycles + validation out of the RunResult.
 *
 *   $ ./quickstart
 */

#include <iostream>

#include "study/parallel.hh"
#include "study/report.hh"

using namespace triarch;
using namespace triarch::study;

int
main()
{
    // A reduced workload so the quickstart finishes instantly; drop
    // these overrides to reproduce the paper's full configuration.
    StudyConfig cfg;
    cfg.matrixSize = 256;
    cfg.cslc.subBands = 16;
    cfg.cslc.samples = (cfg.cslc.subBands - 1) * cfg.cslc.subBandStride
                       + cfg.cslc.subBandLen;
    // The paper-default jammer bins sit beyond the reduced
    // interval; keep them inside it.
    cfg.jammerBins = {100, 900};
    cfg.beam.dwells = 2;

    ParallelRunner runner(cfg, 1);

    std::cout << "triarch quickstart: corner turn ("
              << cfg.matrixSize << "x" << cfg.matrixSize
              << " words) on all five platforms\n\n";

    Table t("Corner turn");
    t.header({"Machine", "Cycles", "Time (ms)", "Output"});
    for (MachineId machine : allMachines()) {
        auto r = runner.run(machine, KernelId::CornerTurn);
        t.row({machineName(machine), Table::num(r.cycles),
               Table::num(r.milliseconds(), 3),
               r.validated ? "verified" : "WRONG"});
    }
    t.render(std::cout);

    std::cout << "\nEach machine model really moves the data: the "
                 "\"verified\" column means the\ntransposed matrix "
                 "read back from simulated memory matched the "
                 "reference.\nSee radar_pipeline and "
                 "architecture_explorer for more.\n";
    return 0;
}
