/**
 * @file
 * Machine-readable stats export: a MetricsRegistry that knows every
 * interesting StatGroup — long-lived groups (experiment scheduler,
 * result cache) registered live, short-lived groups (the per-cell
 * machine models, destroyed when their mapping returns) captured as
 * snapshots — and serializes them all as one versioned
 * "triarch.stats.v1" JSON document next to the existing
 * "triarch.results.v1".
 *
 * Unlike trace.hh, this document is fully deterministic: it carries
 * only simulated counts, never wall-clock, so the same study config
 * produces a bit-identical file at any worker-thread count. Groups
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
    /** Non-empty histograms only (host-time observability); a group
     *  that never recorded one renders exactly as before. */
    std::vector<stats::HistogramReading> histograms;
};

class MetricsRegistry
{
  public:
    MetricsRegistry() = default;

    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    /**
     * Track a process-lifetime group; it is read afresh at every
     * writeJson(). The caller must unregister (or clear the
     * registry) before the group dies. Labeled by the group's name.
     */
    void registerLive(const stats::StatGroup *group);

    /** Stop tracking a live group. */
    void unregisterLive(const stats::StatGroup *group);

    /**
     * Snapshot @p group now under @p label (e.g. "viram.ct" for the
     * VIRAM machine that ran corner turn). Re-capturing a label
     * replaces the previous snapshot — per-cell simulation is
     * deterministic, so a cell that runs twice captures the same
     * values.
     */
    void capture(const stats::StatGroup &group, const std::string &label);

    /** Number of snapshots + live groups currently held. */
    std::size_t size() const;

    /** Drop all snapshots and live registrations. */
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
    std::vector<const stats::StatGroup *> live;
};

} // namespace triarch::metrics

#endif // TRIARCH_SIM_METRICS_HH
