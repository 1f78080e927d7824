/**
 * @file
 * Per-cell result cache keyed by (machine, kernel, config-hash).
 * Ablation sweeps share cells — fig8, fig9, and table3 all need the
 * same 15 Table-3 runs — so any cell measured once under a given
 * StudyConfig is never recomputed within the process. Safe for
 * concurrent use by the ParallelRunner's worker threads.
 *
 * The cache is bounded: an explicit Capacity (max entries plus an
 * approximate byte budget) evicts the least-recently-used cell once
 * either bound is exceeded, and an "evictions" counter in the stat
 * group records how often that happened. The cache lives only as
 * long as its process; nothing is persisted.
 */

#ifndef TRIARCH_STUDY_RESULT_CACHE_HH
#define TRIARCH_STUDY_RESULT_CACHE_HH

#include <cstdint>
#include <list>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <tuple>

#include "sim/stats.hh"
#include "study/experiment.hh"

namespace triarch::study
{

/** Bounds on a ResultCache; 0 means unlimited on that axis. Bytes
 *  are approximate (struct size plus note-string payload). */
struct CacheCapacity
{
    std::size_t maxEntries = 0;
    std::size_t maxBytes = 0;
};

class ResultCache
{
  public:
    using Capacity = CacheCapacity;

    explicit ResultCache(Capacity cache_capacity = {});

    ResultCache(const ResultCache &) = delete;
    ResultCache &operator=(const ResultCache &) = delete;

    /** The cached result for a cell, if any; a hit refreshes the
     *  cell's LRU position. */
    std::optional<RunResult> get(MachineId machine, KernelId kernel,
                                 std::uint64_t config_hash) const;

    /** Store @p result (keyed by its own machine/kernel ids),
     *  evicting least-recently-used cells if a bound is exceeded. */
    void put(const RunResult &result, std::uint64_t config_hash);

    /** Replace the bounds, evicting immediately if now over. */
    void setCapacity(Capacity cache_capacity);
    Capacity capacity() const;

    std::size_t size() const;

    /** Approximate bytes held by the cached entries. */
    std::size_t approxBytes() const;

    void clear();

    /** Lookup counters (since construction or clear()). */
    std::uint64_t hits() const;
    std::uint64_t misses() const;

    /** Cells dropped by the LRU bound (since construction/clear). */
    std::uint64_t evictions() const;

    /** The "result_cache" group holding the hit/miss counters. */
    const stats::StatGroup &statGroup() const { return group; }

    /** The process-wide cache shared by default by every runner;
     *  its stat group is live-registered in the global
     *  MetricsRegistry. Bounded generously (4096 cells / 256 MiB)
     *  so unbounded sweeps cannot grow it without limit. */
    static ResultCache &global();

  private:
    using Key = std::tuple<unsigned, unsigned, std::uint64_t>;
    struct Entry
    {
        Key key;
        RunResult result;
        std::size_t bytes;
    };
    /** Front = most recently used. */
    using LruList = std::list<Entry>;

    static std::size_t entryBytes(const RunResult &result);

    /** Drop LRU entries until within capacity (mu held). */
    void enforceCapacityLocked();
    void updateGaugesLocked() const;

    mutable std::mutex mu;
    mutable LruList lru;
    mutable std::map<Key, LruList::iterator> index;
    Capacity cap;
    std::size_t bytesHeld = 0;
    stats::StatGroup group{"result_cache"};
    mutable stats::AtomicScalar nHits;
    mutable stats::AtomicScalar nMisses;
    mutable stats::AtomicScalar nEvictions;
    mutable stats::AtomicScalar nEntries;
    mutable stats::AtomicScalar nBytes;
};

} // namespace triarch::study

#endif // TRIARCH_STUDY_RESULT_CACHE_HH
