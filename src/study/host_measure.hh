/**
 * @file
 * Host-time measurement of the Table-3 grid: run each cell's mapping
 * under the repeated-measurement contract (host_clock.hh) and fold
 * the per-cell statistics into the optional "host" section of a
 * triarch.bench.v1 document. Library code so perf_report, micro_host
 * and the tests share one measurement path.
 */

#ifndef TRIARCH_STUDY_HOST_MEASURE_HH
#define TRIARCH_STUDY_HOST_MEASURE_HH

#include <vector>

#include "sim/host_clock.hh"
#include "study/bench_report.hh"
#include "study/parallel.hh"

namespace triarch::study
{

/**
 * Measure every cell in @p cells serially: workloads are synthesized
 * once, then each mapping runs opts.warmup unmeasured plus
 * opts.repetitions measured times. cellsPerSec is the grid
 * throughput at the per-cell medians (cells / sum of medians).
 * Cells run the built-in mappings; an unmapped pair is fatal.
 */
HostSection measureHostSection(const StudyConfig &cfg,
                               const std::vector<Cell> &cells,
                               const host::MeasureOptions &opts);

} // namespace triarch::study

#endif // TRIARCH_STUDY_HOST_MEASURE_HH
