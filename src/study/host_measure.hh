/**
 * @file
 * Host-time measurement of the Table-3 grid: run each cell's mapping
 * under the repeated-measurement contract (host_clock.hh) and fold
 * the per-cell statistics into the optional "host" block of a
 * triarch.results.v2 document. Library code so micro_host and the
 * tests share one measurement path, and micro_host's command line
 * parses here so the tests can pin it.
 */

#ifndef TRIARCH_STUDY_HOST_MEASURE_HH
#define TRIARCH_STUDY_HOST_MEASURE_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "sim/host_clock.hh"
#include "study/parallel.hh"
#include "study/result_sink.hh"

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

/** micro_host's command line. */
struct MicroHostArgs
{
    std::uint64_t seed = 11;
    host::MeasureOptions measure{1, 5, -1};
    bool json = false;
    bool grid = false;
    /** The grid cells --machines and --kernels select. */
    std::vector<Cell> cells = allCells();
};

/**
 * Parse micro_host's argv with CliOptions. --machines and --kernels
 * select cells exactly as in the bench harness
 * (CliOptions::selectionFlags). Returns an exit code when the tool
 * should stop (0 after --help; 2 on an unknown flag, machine or
 * kernel, or an empty list), or nullopt to proceed.
 */
std::optional<int> parseMicroHostArgs(int argc, char **argv,
                                      MicroHostArgs *args);

} // namespace triarch::study

#endif // TRIARCH_STUDY_HOST_MEASURE_HH
