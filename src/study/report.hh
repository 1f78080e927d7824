/**
 * @file
 * Report builders: render the paper's tables and figures from a set
 * of RunResults. Table and figure numbering follows the paper
 * (Tables 1-4, Figures 8-9).
 */

#ifndef TRIARCH_STUDY_REPORT_HH
#define TRIARCH_STUDY_REPORT_HH

#include <vector>

#include "sim/table.hh"
#include "study/experiment.hh"
#include "study/perf_model.hh"

namespace triarch::study
{

/** Find one result (panics if absent). */
const RunResult &findResult(const std::vector<RunResult> &results,
                            MachineId machine, KernelId kernel);

/** Table 1: peak throughput in 32-bit words per cycle. */
Table buildTable1();

/** Table 2: processor parameters. */
Table buildTable2();

/** Table 3: experimental results (cycles in 10^3), one row per
 *  machine and one column per kernel, in the given orders. */
Table buildTable3(const std::vector<RunResult> &results,
                  const std::vector<MachineId> &machines = allMachines(),
                  const std::vector<KernelId> &kernels = allKernels());

/**
 * Table 4: Section 2.5 performance-model bounds vs measured cycles,
 * with the achieved fraction of the bound.
 */
Table buildTable4(const StudyConfig &cfg,
                  const std::vector<RunResult> &results);

/**
 * Speedup of @p machine over the PPC+AltiVec baseline on @p kernel.
 * @p perTime scales cycles by clock rate (Figure 9); otherwise the
 * comparison is cycle-for-cycle (Figure 8).
 */
double speedupVsAltivec(const std::vector<RunResult> &results,
                        MachineId machine, KernelId kernel,
                        bool perTime);

/** Figure 8: speedup vs PPC+AltiVec in cycles (log scale). */
BarChart buildFigure8(const std::vector<RunResult> &results);

/** Figure 9: speedup vs PPC+AltiVec in execution time (log scale). */
BarChart buildFigure9(const std::vector<RunResult> &results);

} // namespace triarch::study

#endif // TRIARCH_STUDY_REPORT_HH
