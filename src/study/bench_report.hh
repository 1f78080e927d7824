/**
 * @file
 * The perf gate behind bench/bench_diff: the comparisons it runs
 * over two triarch.results.v2 documents (result_sink.hh) —
 * fresh-vs-baseline exact equality per cell and cycle-account
 * category, the advisory or gated host-time comparison, and a loose
 * sanity check against the paper's Table 3.
 *
 * The comparisons live here as library code (not in the tool) so
 * tests can exercise pass/fail decisions without spawning processes;
 * bench_diff is a thin CLI over these functions.
 */

#ifndef TRIARCH_STUDY_BENCH_REPORT_HH
#define TRIARCH_STUDY_BENCH_REPORT_HH

#include <optional>
#include <string>
#include <vector>

#include "study/result_sink.hh"

namespace triarch::study
{

/**
 * Paper Table 3 target in kilocycles for one cell (panics on an
 * unmapped pair). Shared by the table3 bench and the perf gate so
 * the paper's numbers exist in exactly one place.
 */
double paperTable3Kcycles(MachineId machine, KernelId kernel);

/** Outcome of a comparison: ok() iff no failure lines. */
struct BenchDiffResult
{
    std::vector<std::string> failures;
    std::size_t cellsCompared = 0;

    bool ok() const { return failures.empty(); }
};

/**
 * Compare a fresh document against the committed baseline: same
 * config hash and seed, same cell set, every cell validated, and
 * cycles plus every breakdown category equal to the baseline's.
 * Simulation is deterministic, so the gate allows no drift. Every
 * violation becomes one failure line.
 */
BenchDiffResult diffBenchReports(const ResultsDocument &baseline,
                                 const ResultsDocument &fresh);

/**
 * Compare the host blocks of two documents. Host time is hardware-
 * dependent, so by default every observation is an advisory line in
 * *advisory (when non-null), never a failure. With @p gate_ratio > 0
 * the comparison is enforced: a fresh cell whose median exceeds
 * baseline * gate_ratio becomes a failure, as does a missing host
 * block on either side. Documents without host blocks compare ok
 * when no gate is requested.
 */
BenchDiffResult diffHostSections(const ResultsDocument &baseline,
                                 const ResultsDocument &fresh,
                                 double gate_ratio = 0.0,
                                 std::vector<std::string> *advisory
                                 = nullptr);

/**
 * Loose absolute anchor: every cell's cycle count must lie within
 * [paper/factor, paper*factor] of the paper's Table 3 value, so a
 * drifted baseline cannot quietly ratchet away from the paper.
 * (Measured/paper currently spans 0.58-1.21 across the grid.)
 */
BenchDiffResult checkPaperTargets(const ResultsDocument &report,
                                  double factor = 2.0);

/** The bench_diff gate's command line. */
struct BenchDiffArgs
{
    std::string baselinePath;
    std::string reportPath;     //!< empty = re-measure the grid
    std::uint64_t seed = 11;
    unsigned threads = 0;       //!< 0 = hardware concurrency
    double paperFactor = 2.0;   //!< 0 disables the paper band
    double hostGate = 0.0;      //!< 0 = advisory host comparison
};

/**
 * Parse bench_diff's argv with CliOptions. Returns an exit code when
 * the tool should stop (0 after --help; 2 on an unknown flag, a
 * non-positive --host-gate or a missing --baseline), or nullopt to
 * proceed. A malformed number exits with status 2 directly.
 */
std::optional<int> parseBenchDiffArgs(int argc, char **argv,
                                      BenchDiffArgs *args);

} // namespace triarch::study

#endif // TRIARCH_STUDY_BENCH_REPORT_HH
