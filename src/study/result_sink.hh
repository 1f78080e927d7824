/**
 * @file
 * The one per-cell results document, "triarch.results.v2": the study
 * config block, free-form metadata, one writeRunResult() record per
 * cell (tokens, cycles, validated, measured_unbalanced, breakdown,
 * notes) and an optional "host" block of wall-clock timings.
 * ResultSink collects and writes it (safe to add() from multiple
 * threads); parseResultsJson() is its only reader, so the schema,
 * unique cells and the breakdown partition are enforced in one place.
 * The perf gate (bench_report.hh), bench --json and micro_host --json
 * all speak this document.
 */

#ifndef TRIARCH_STUDY_RESULT_SINK_HH
#define TRIARCH_STUDY_RESULT_SINK_HH

#include <mutex>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "study/experiment.hh"

namespace triarch::study
{

/** The results document schema identifier. */
const std::string &resultsSchema();   // "triarch.results.v2"

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
 * The optional "host" block of a results document: where the *host*
 * time goes, next to the simulated-cycle cells. Absent unless a host
 * measurement was attached, so cycle-only documents stay
 * deterministic.
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

/** A results document as read back (or as a sink holds it). */
struct ResultsDocument
{
    std::string configHash;     //!< config.hash: hex studyConfigHash
    std::uint64_t seed = 0;     //!< config.seed
    std::vector<RunResult> results;
    std::optional<HostSection> host;

    /** Lookup, or nullptr when the cell is absent. */
    const RunResult *find(MachineId machine, KernelId kernel) const;

    friend bool operator==(const ResultsDocument &,
                           const ResultsDocument &) = default;
};

class ResultSink
{
  public:
    explicit ResultSink(StudyConfig sink_config = {});

    ResultSink(const ResultSink &) = delete;
    ResultSink &operator=(const ResultSink &) = delete;

    /** Record one cell measurement. */
    void add(const RunResult &result);

    /** Record a batch of cell measurements. */
    void add(const std::vector<RunResult> &results);

    /** Attach a free-form metadata string (threads, wall time...). */
    void metadata(const std::string &meta_key,
                  const std::string &value);

    /** Attach the optional host block. */
    void host(HostSection section);

    std::size_t size() const;

    /** The in-memory form of what writeJson() emits. */
    ResultsDocument document() const;

    /** Render the whole document (stable key order, newline-
     *  terminated). */
    void writeJson(std::ostream &os) const;

    /** Render to @p path; fatal if the file cannot be written. */
    void writeJsonFile(const std::string &path) const;

  private:
    mutable std::mutex mu;
    StudyConfig cfg;
    std::vector<RunResult> results;
    std::vector<std::pair<std::string, std::string>> meta;
    std::optional<HostSection> hostBlock;
};

/**
 * Parse a triarch.results.v2 document. Rejects any other schema,
 * a missing config hash or seed, a cell parseRunResult() rejects
 * (unknown tokens, a breakdown that does not partition the cycles),
 * duplicate cells, and a malformed host block. Metadata is not
 * read. On failure returns nullopt and stores a one-line reason in
 * *error.
 */
std::optional<ResultsDocument>
parseResultsJson(const std::string &text, std::string *error);

/** Read and parse a file (nullopt + *error on I/O or parse fail). */
std::optional<ResultsDocument>
loadResultsFile(const std::string &path, std::string *error);

} // namespace triarch::study

#endif // TRIARCH_STUDY_RESULT_SINK_HH
