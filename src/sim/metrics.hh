/**
 * @file
 * Machine-readable stats export: a MetricsRegistry of labelled
 * StatGroup snapshots — each per-cell machine model's groups,
 * captured when its mapping returns, and the scheduler and result
 * cache groups, captured when their owner ends — serialized as one
 * versioned "triarch.stats.v1" JSON document next to the per-cell
 * "triarch.results.v2". Nothing is read live: a group is in the
 * document as it was when captured.
 *
 * Unlike trace.hh, this document is fully deterministic: it carries
 * only simulated counts, never wall-clock, so the same study config
 * produces a bit-identical file at any worker-thread count. The one
 * exception is opt-in: with host profiling on (host::setProfiling,
 * --host-stats) each cell adds a "<machine>.<kernel>.host" group of
 * host nanoseconds and the scheduler two host totals. Groups
 * are serialized in label order, not registration order, to keep the
 * byte stream independent of scheduling.
 */

#ifndef TRIARCH_SIM_METRICS_HH
#define TRIARCH_SIM_METRICS_HH

#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "sim/stats.hh"

namespace triarch::metrics
{

/** Deep snapshot of one StatGroup at capture time. */
struct GroupSnapshot
{
    std::string group;      //!< the StatGroup's own name
    std::vector<stats::ScalarReading> scalars;
    std::vector<stats::AverageReading> averages;
    std::vector<stats::DistributionReading> distributions;
};

class MetricsRegistry
{
  public:
    MetricsRegistry() = default;

    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    /**
     * Snapshot @p group now under @p label (e.g. "viram.ct" for the
     * VIRAM machine that ran corner turn). Re-capturing a label
     * replaces the previous snapshot — per-cell simulation is
     * deterministic, so a cell that runs twice captures the same
     * values.
     */
    void capture(const stats::StatGroup &group, const std::string &label);

    /** Number of snapshots currently held. */
    std::size_t size() const;

    /** Drop all snapshots. */
    void clear();

    /** Render the "triarch.stats.v1" document. */
    void writeJson(std::ostream &os) const;

    /** Render to @p path; fatal if the file cannot be written. */
    void writeJsonFile(const std::string &path) const;

    /** The process-wide registry the study layer reports into. */
    static MetricsRegistry &global();

  private:
    mutable std::mutex mu;
    std::map<std::string, GroupSnapshot> snapshots;
};

} // namespace triarch::metrics

#endif // TRIARCH_SIM_METRICS_HH
