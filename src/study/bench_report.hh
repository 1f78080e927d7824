/**
 * @file
 * The committed-benchmark layer behind bench/perf_report and
 * bench/bench_diff: a versioned JSON document ("triarch.bench.v1")
 * holding per-(machine, kernel) cycle totals and cycle-account
 * breakdowns, plus the two comparisons the CI perf gate runs —
 * fresh-vs-baseline exact equality per cell and category, and a loose
 * sanity check against the paper's Table 3.
 *
 * Parsing and diffing live here as library code (not in the tools)
 * so tests can exercise pass/fail decisions without spawning
 * processes; bench_diff is a thin CLI over these functions.
 */

#ifndef TRIARCH_STUDY_BENCH_REPORT_HH
#define TRIARCH_STUDY_BENCH_REPORT_HH

#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "study/experiment.hh"

namespace triarch::study
{

/** The benchmark document schema identifier. */
const std::string &benchSchema();   // "triarch.bench.v1"

/**
 * Paper Table 3 target in kilocycles for one cell (panics on an
 * unmapped pair). Shared by the table3 bench and the perf gate so
 * the paper's numbers exist in exactly one place.
 */
double paperTable3Kcycles(MachineId machine, KernelId kernel);

/** One (machine, kernel) entry of a benchmark report. */
struct BenchCell
{
    MachineId machine{};
    KernelId kernel{};
    Cycles cycles = 0;
    /** Raw CSLC only: the measured (imbalanced) wall clock. */
    std::optional<Cycles> measuredUnbalanced;
    bool validated = false;
    /** Partition of `cycles` by category (sums exactly to it). */
    stats::CycleBreakdown breakdown;

    friend bool operator==(const BenchCell &,
                           const BenchCell &) = default;
};

/**
 * Host wall-clock timing of one cell: robust statistics over the
 * repeated-measurement contract (host_clock.hh), in nanoseconds.
 */
struct HostCellTiming
{
    MachineId machine{};
    KernelId kernel{};
    double medianNs = 0.0;
    double p95Ns = 0.0;
    double minNs = 0.0;
    double stddevNs = 0.0;

    friend bool operator==(const HostCellTiming &,
                           const HostCellTiming &) = default;
};

/**
 * The optional "host" section of a bench report: where the *host*
 * time goes, next to the simulated-cycle cells. Absent by default so
 * documents written without the host flags stay byte-identical.
 */
struct HostSection
{
    std::uint64_t warmup = 0;       //!< unmeasured priming iterations
    std::uint64_t repetitions = 0;  //!< measured iterations per cell
    bool pinned = false;            //!< thread was pinned to a core
    double cellsPerSec = 0.0;       //!< grid throughput at the medians
    std::vector<HostCellTiming> cells;

    /** Lookup, or nullptr when the cell is absent. */
    const HostCellTiming *find(MachineId machine,
                               KernelId kernel) const;

    friend bool operator==(const HostSection &,
                           const HostSection &) = default;
};

/** A versioned benchmark document. */
struct BenchReport
{
    std::string schema;
    std::string configHash;     //!< hex studyConfigHash of the run
    std::uint64_t seed = 0;
    std::vector<BenchCell> cells;
    std::optional<HostSection> host;

    /** Lookup, or nullptr when the cell is absent. */
    const BenchCell *find(MachineId machine, KernelId kernel) const;

    friend bool operator==(const BenchReport &,
                           const BenchReport &) = default;
};

/**
 * Assemble a report from measured results (cells are emitted in the
 * canonical machine-major order regardless of input order). Panics
 * if a result's breakdown does not partition its cycle count — the
 * profiler invariant is checked once more at the export boundary.
 */
BenchReport buildBenchReport(const StudyConfig &cfg,
                             const std::vector<RunResult> &results);

/** Emit the document (stable key order, newline-terminated). */
void writeBenchReportJson(const BenchReport &report, std::ostream &os);

/**
 * Parse a triarch.bench.v1 document. Rejects unknown schemas,
 * unknown machine/kernel tokens, duplicate cells, and any cell
 * whose breakdown fails to sum to its cycle count. On failure
 * returns nullopt and stores a one-line reason in *error.
 */
std::optional<BenchReport>
parseBenchReportJson(const std::string &text, std::string *error);

/** Read and parse a file (nullopt + *error on I/O or parse fail). */
std::optional<BenchReport>
loadBenchReportFile(const std::string &path, std::string *error);

/** Outcome of a comparison: ok() iff no failure lines. */
struct BenchDiffResult
{
    std::vector<std::string> failures;
    std::size_t cellsCompared = 0;

    bool ok() const { return failures.empty(); }
};

/**
 * Compare a fresh report against the committed baseline: same
 * config hash and seed, same cell set, every cell validated, and
 * cycles plus every breakdown category equal to the baseline's.
 * Simulation is deterministic, so the gate allows no drift. Every
 * violation becomes one failure line.
 */
BenchDiffResult diffBenchReports(const BenchReport &baseline,
                                 const BenchReport &fresh);

/**
 * Compare the host sections of two reports. Host time is hardware-
 * dependent, so by default every observation is an advisory line in
 * *advisory (when non-null), never a failure. With @p gate_ratio > 0
 * the comparison is enforced: a fresh cell whose median exceeds
 * baseline * gate_ratio becomes a failure, as does a missing host
 * section on either side. Reports without host sections compare ok
 * when no gate is requested.
 */
BenchDiffResult diffHostSections(const BenchReport &baseline,
                                 const BenchReport &fresh,
                                 double gate_ratio = 0.0,
                                 std::vector<std::string> *advisory
                                 = nullptr);

/**
 * Loose absolute anchor: every cell's cycle count must lie within
 * [paper/factor, paper*factor] of the paper's Table 3 value, so a
 * drifted baseline cannot quietly ratchet away from the paper.
 * (Measured/paper currently spans 0.58-1.21 across the grid.)
 */
BenchDiffResult checkPaperTargets(const BenchReport &report,
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
