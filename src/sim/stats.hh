/**
 * @file
 * A small statistics package in the spirit of gem5's: named scalar
 * counters, averages, and distributions owned by a StatGroup that can
 * render itself to a stream and answer queries by name.
 *
 * Every simulator component (DRAM model, cache, vector unit, ...)
 * owns a StatGroup; the study framework reads the groups to explain
 * where cycles went (e.g. VIRAM precharge overhead, Imagine memory
 * stall fraction).
 *
 * Threading model: Scalar/Average/Distribution are single-owner
 * stats — each machine model (and everything it owns) is confined
 * to the one worker thread running its cell, so its stats need no
 * synchronization and stay cheap in simulator hot loops. Counters
 * shared *across* worker threads (scheduler progress, cache
 * hit/miss tallies) use AtomicScalar instead.
 */

#ifndef TRIARCH_SIM_STATS_HH
#define TRIARCH_SIM_STATS_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace triarch::stats
{

/** A named 64-bit counter. */
class Scalar
{
  public:
    Scalar() = default;

    Scalar &operator+=(std::uint64_t v) { count += v; return *this; }
    Scalar &operator++() { ++count; return *this; }
    void set(std::uint64_t v) { count = v; }
    void reset() { count = 0; }
    std::uint64_t value() const { return count; }

  private:
    std::uint64_t count = 0;
};

/**
 * A named 64-bit counter safe to bump from many threads at once
 * (relaxed ordering — a tally, not a synchronization point). Used
 * for cross-thread accounting in the parallel experiment engine;
 * per-machine simulator stats stay on the unsynchronized Scalar.
 */
class AtomicScalar
{
  public:
    AtomicScalar() = default;

    AtomicScalar &
    operator+=(std::uint64_t v)
    {
        count.fetch_add(v, std::memory_order_relaxed);
        return *this;
    }

    AtomicScalar &
    operator++()
    {
        count.fetch_add(1, std::memory_order_relaxed);
        return *this;
    }

    void set(std::uint64_t v) { count.store(v, std::memory_order_relaxed); }
    void reset() { set(0); }

    std::uint64_t
    value() const
    {
        return count.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<std::uint64_t> count{0};
};

/** Running mean of sampled values. */
class Average
{
  public:
    void
    sample(double v)
    {
        sum += v;
        ++n;
    }

    void reset() { sum = 0; n = 0; }
    double mean() const { return n ? sum / n : 0.0; }
    std::uint64_t samples() const { return n; }

  private:
    double sum = 0.0;
    std::uint64_t n = 0;
};

/** Fixed-bucket histogram over [lo, hi). */
class Distribution
{
  public:
    Distribution() : Distribution(0.0, 1.0, 1) {}

    Distribution(double lo, double hi, unsigned nbuckets)
        : _low(lo), _high(hi), buckets(nbuckets, 0)
    {
    }

    /** Record one sample; out-of-range samples land in under/over. */
    void
    sample(double v)
    {
        ++n;
        sum += v;
        if (v < _low) {
            ++underflow;
        } else if (v >= _high) {
            ++overflow;
        } else {
            auto idx = static_cast<std::size_t>(
                (v - _low) / (_high - _low) * buckets.size());
            if (idx >= buckets.size())
                idx = buckets.size() - 1;
            ++buckets[idx];
        }
    }

    /** Zero every bucket and tally; the bucket layout is kept. */
    void
    reset()
    {
        for (auto &b : buckets)
            b = 0;
        underflow = 0;
        overflow = 0;
        n = 0;
        sum = 0.0;
    }

    std::uint64_t samples() const { return n; }
    double mean() const { return n ? sum / n : 0.0; }
    std::uint64_t bucket(std::size_t i) const { return buckets.at(i); }
    std::uint64_t under() const { return underflow; }
    std::uint64_t over() const { return overflow; }
    std::size_t numBuckets() const { return buckets.size(); }
    double low() const { return _low; }
    double high() const { return _high; }

  private:
    double _low;
    double _high;
    std::vector<std::uint64_t> buckets;
    std::uint64_t underflow = 0;
    std::uint64_t overflow = 0;
    std::uint64_t n = 0;
    double sum = 0.0;
};

/** Snapshot of one scalar (plain or atomic) for serialization. */
struct ScalarReading
{
    std::string name;
    std::string desc;
    std::uint64_t value;
};

/** Snapshot of one average for serialization. */
struct AverageReading
{
    std::string name;
    std::string desc;
    double mean;
    std::uint64_t samples;
};

/** Snapshot of one distribution for serialization. */
struct DistributionReading
{
    std::string name;
    std::string desc;
    double low;
    double high;
    double mean;
    std::uint64_t samples;
    std::uint64_t under;
    std::uint64_t over;
    std::vector<std::uint64_t> buckets;
};

/**
 * A named collection of statistics. Components register their stats
 * once at construction; the group does not own the stat storage.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string group_name)
        : _name(std::move(group_name))
    {
    }

    StatGroup(const StatGroup &) = delete;
    StatGroup &operator=(const StatGroup &) = delete;

    /** Register a scalar under @p stat_name. */
    void addScalar(const std::string &stat_name, Scalar *s,
                   const std::string &desc = "");

    /** Register a cross-thread atomic scalar under @p stat_name. */
    void addAtomicScalar(const std::string &stat_name, AtomicScalar *s,
                         const std::string &desc = "");

    /** Register an average under @p stat_name. */
    void addAverage(const std::string &stat_name, Average *a,
                    const std::string &desc = "");

    /** Register a distribution under @p stat_name. */
    void addDistribution(const std::string &stat_name, Distribution *d,
                         const std::string &desc = "");

    /** Value of a registered scalar (plain or atomic); panics on
     *  unknown names. */
    std::uint64_t scalar(const std::string &stat_name) const;

    /** Mean of a registered average; panics on unknown names. */
    double average(const std::string &stat_name) const;

    /** A registered distribution; panics on unknown names. */
    const Distribution &distribution(const std::string &stat_name) const;

    /** True if a scalar (plain or atomic) with this name was
     *  registered. */
    bool hasScalar(const std::string &stat_name) const;

    /** Reset every registered stat to zero. */
    void resetAll();

    /** Render "group.stat value  # desc" lines (all stat kinds). */
    void dump(std::ostream &os) const;

    const std::string &name() const { return _name; }

    /** Names of all registered scalars (plain then atomic), in
     *  registration order. */
    std::vector<std::string> scalarNames() const;

    /** Snapshots of all scalars (plain then atomic), in
     *  registration order. */
    std::vector<ScalarReading> scalarReadings() const;

    /** Snapshots of all averages, in registration order. */
    std::vector<AverageReading> averageReadings() const;

    /** Snapshots of all distributions, in registration order. */
    std::vector<DistributionReading> distributionReadings() const;

  private:
    struct ScalarEntry
    {
        std::string name;
        Scalar *stat;
        std::string desc;
    };

    struct AtomicEntry
    {
        std::string name;
        AtomicScalar *stat;
        std::string desc;
    };

    struct AverageEntry
    {
        std::string name;
        Average *stat;
        std::string desc;
    };

    struct DistributionEntry
    {
        std::string name;
        Distribution *stat;
        std::string desc;
    };

    std::string _name;
    std::vector<ScalarEntry> scalars;
    std::vector<AtomicEntry> atomics;
    std::vector<AverageEntry> averages;
    std::vector<DistributionEntry> distributions;
};

} // namespace triarch::stats

#endif // TRIARCH_SIM_STATS_HH
