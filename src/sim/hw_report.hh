/**
 * @file
 * Hardware-counter observability (D14): the versioned triarch.hw.v1
 * per-cell utilization report, the deterministic epoch sampler that
 * turns run-loop events into fixed-length counter timelines, and the
 * process-wide HwRegistry the kernel mappings capture into.
 *
 * The D9 cycle account says *where* a cell's cycles went; this layer
 * says *why*, by rolling every component StatGroup (caches, TLB,
 * DRAM channels, ports, mesh FIFOs, vector lanes, stream units) into
 * derived utilization metrics, attaching a bottleneck verdict that
 * is cross-checked against the cycle partition, and sampling the
 * busiest counters over simulated time.
 *
 * Everything here is deterministic: epoch boundaries are simulated-
 * cycle positions (never wall clock), the sampler's result is
 * independent of the order events are recorded in (required because
 * the Raw co-batch replays per-chain cycle ranges out of order), and
 * the registry renders label-sorted — so hw documents are
 * byte-identical at any worker-thread count and under both the Span
 * and Reference memory models (D13).
 */

#ifndef TRIARCH_SIM_HW_REPORT_HH
#define TRIARCH_SIM_HW_REPORT_HH

#include <array>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "sim/cycle_account.hh"
#include "sim/types.hh"

namespace triarch::hw
{

/** Fixed slot budget of every epoch timeline (and so the maximum
 *  number of epochs a cell can report). */
inline constexpr std::size_t kEpochSlots = 64;

/**
 * One sampled counter track: per-epoch event counts for a named
 * hardware signal (e.g. "vmu_busy", "dram_stall").
 */
struct EpochChannel
{
    std::string name;
    std::vector<std::uint64_t> counts;      //!< one entry per epoch

    friend bool operator==(const EpochChannel &,
                           const EpochChannel &) = default;
};

/** A cell's epoch-sampled counter timelines. */
struct HwTimeline
{
    /** Simulated cycles the timeline covers (the measured run
     *  length; for Raw CSLC this is the unbalanced wall clock the
     *  events actually happened on, not the reported extrapolation). */
    Cycles cycles = 0;
    /** Epoch length in cycles; always a power of two. */
    Cycles epochCycles = 1;
    std::vector<EpochChannel> channels;

    /** Number of epochs (== every channel's counts.size()). */
    std::size_t
    epochs() const
    {
        return channels.empty() ? 0 : channels.front().counts.size();
    }

    friend bool operator==(const HwTimeline &,
                           const HwTimeline &) = default;
};

/** One derived figure; rates are validated to lie in [0, 1]. */
struct HwMetric
{
    std::string name;
    double value = 0.0;
    bool rate = false;

    friend bool operator==(const HwMetric &,
                           const HwMetric &) = default;
};

/**
 * The bottleneck attribution: which hardware component dominated the
 * cell and why. The category must equal the dominant D9 category of
 * the cell's breakdown (ties resolve in category priority order) and
 * the component must belong to that category per
 * componentCategory() — both are enforced by the parser.
 */
struct HwVerdict
{
    std::string component;      //!< e.g. "dram", "l2", "mesh"
    stats::CycleCategory category = stats::CycleCategory::Compute;
    std::string detail;         //!< human one-liner with the numbers

    friend bool operator==(const HwVerdict &,
                           const HwVerdict &) = default;
};

/** Everything triarch.hw.v1 knows about one (machine, kernel) cell. */
struct HwCell
{
    std::string machine;        //!< machine token ("viram", ...)
    std::string kernel;         //!< kernel token ("ct", ...)
    Cycles cycles = 0;          //!< reported cycles (= breakdown.total)
    stats::CycleBreakdown breakdown;
    std::vector<HwMetric> metrics;
    HwVerdict verdict;
    HwTimeline timeline;

    friend bool operator==(const HwCell &, const HwCell &) = default;
};

/** A full triarch.hw.v1 document. */
struct HwReport
{
    /** Hex workload-config hash; empty = omitted from the document. */
    std::string configHash;
    std::vector<HwCell> cells;

    friend bool operator==(const HwReport &,
                           const HwReport &) = default;
};

/**
 * The category every known component belongs to; nullopt for unknown
 * component names. This is the fixed table the parser uses to reject
 * verdicts whose component contradicts their category.
 */
std::optional<stats::CycleCategory>
componentCategory(const std::string &component);

/** The dominant category of a breakdown: the largest share, ties
 *  resolved in declaration (priority) order. */
stats::CycleCategory dominantCategory(const stats::CycleBreakdown &b);

/** Deterministic two-decimal rendering ("0.31") for verdict detail
 *  strings; locale-independent. */
std::string fmt2(double v);

/**
 * Accumulates per-cycle event counts into at most kEpochSlots
 * equal-length epochs whose length is a power of two.
 *
 * The sampler starts at one cycle per epoch and doubles the epoch
 * length (merging slots pairwise) whenever a recorded cycle falls
 * past the current capacity, so recording is O(1) amortized and the
 * final array depends only on the set of (cycle, count) additions —
 * never on the order they arrive in. That order-independence is a
 * correctness requirement: the Raw event stepper credits bulk cycle
 * ranges out of order relative to the reference stepper, and both
 * must produce identical timelines.
 */
class EpochSampler
{
  public:
    explicit EpochSampler(std::vector<std::string> channel_names);

    std::size_t channels() const { return names.size(); }

    /** Record @p count events on @p channel at @p cycle. */
    void
    addAt(std::size_t channel, Cycles cycle, std::uint64_t count = 1)
    {
        fit(cycle);
        slots[channel][cycle >> shift] += count;
    }

    /** Record one event per cycle of [@p start, @p end) on
     *  @p channel, split exactly across the epochs it covers. */
    void addRange(std::size_t channel, Cycles start, Cycles end);

    /** Forget all samples (channel names are kept); the machines'
     *  resetTiming() calls this so a kernel starts a fresh timeline. */
    void reset();

    /**
     * Close the sampler against the authoritative run length and
     * return the timeline: epochs = ceil(total / epochCycles) with
     * the smallest power-of-two epoch length that fits kEpochSlots.
     * Events recorded past @p total_cycles (possible only by
     * sub-cycle rounding on fractional-clock machines) fold into the
     * final epoch so counts are conserved.
     */
    HwTimeline finalize(Cycles total_cycles);

  private:
    void
    fit(Cycles cycle)
    {
        while ((cycle >> shift) >= kEpochSlots)
            grow();
    }

    /** Double the epoch length: merge slots pairwise. */
    void grow();

    unsigned shift = 0;         //!< epoch length = 1 << shift
    std::vector<std::string> names;
    std::vector<std::array<std::uint64_t, kEpochSlots>> slots;
};

/** Render @p report as a triarch.hw.v1 document. */
void writeHwReport(std::ostream &os, const HwReport &report);

/** writeHwReport() to a string. */
std::string renderHwReport(const HwReport &report);

/**
 * Parse and validate a triarch.hw.v1 document. Beyond shape, this
 * enforces the semantic invariants: every rate metric in [0, 1],
 * each cell's breakdown an exact partition of its cycles, the
 * verdict category equal to the breakdown's dominant category, the
 * verdict component consistent with that category, and every
 * timeline channel sized to ceil(cycles / epochCycles) with a
 * power-of-two epoch length. On failure returns nullopt with the
 * reason in @p error.
 */
std::optional<HwReport> parseHwReport(const std::string &text,
                                      std::string *error);

/** Parse @p path (errors are prefixed with the path). */
std::optional<HwReport> loadHwReportFile(const std::string &path,
                                         std::string *error);

/**
 * Process-wide store of the most recent HwCell per (machine, kernel)
 * label, captured by the kernel mappings right where the machine
 * model's StatGroups are captured into the MetricsRegistry. Per-cell
 * simulation is deterministic, so re-running a cell recaptures an
 * identical value; report() renders label-sorted, so the document is
 * independent of execution order and thread count.
 */
class HwRegistry
{
  public:
    void capture(HwCell cell);

    std::size_t size() const;
    void clear();

    /** The captured cell for (machine, kernel) tokens, if any. */
    std::optional<HwCell> find(const std::string &machine,
                               const std::string &kernel) const;

    /** Snapshot every captured cell into a report. */
    HwReport report(std::string config_hash = {}) const;

    static HwRegistry &global();

  private:
    mutable std::mutex mu;
    std::map<std::string, HwCell> cells;
};

} // namespace triarch::hw

#endif // TRIARCH_SIM_HW_REPORT_HH
