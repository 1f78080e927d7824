/**
 * @file
 * Per-cell result memo keyed by (machine, kernel, config-hash): a
 * cell measured once under a given StudyConfig is never recomputed
 * by a runner that shares the memo. There is no process-wide memo:
 * whoever re-asks for cells owns one and passes it to its
 * ParallelRunner (a bench's BenchContext, perfbench's sweep,
 * parallel_speedup); every other runner recomputes. Safe for
 * concurrent use by the ParallelRunner's worker threads. Nothing is
 * evicted and nothing is persisted.
 */

#ifndef TRIARCH_STUDY_RESULT_CACHE_HH
#define TRIARCH_STUDY_RESULT_CACHE_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <tuple>

#include "sim/stats.hh"
#include "study/experiment.hh"

namespace triarch::study
{

class ResultCache
{
  public:
    ResultCache();

    ResultCache(const ResultCache &) = delete;
    ResultCache &operator=(const ResultCache &) = delete;

    /** The memoized result for a cell, if any. */
    std::optional<RunResult> get(MachineId machine, KernelId kernel,
                                 std::uint64_t config_hash) const;

    /** Store @p result, keyed by its own machine/kernel ids. */
    void put(const RunResult &result, std::uint64_t config_hash);

    std::size_t size() const;

    /** Lookup counters since construction. */
    std::uint64_t hits() const { return nHits.value(); }
    std::uint64_t misses() const { return nMisses.value(); }

    /** The "result_cache" group: hits, misses, entries. */
    const stats::StatGroup &statGroup() const { return group; }

  private:
    using Key = std::tuple<unsigned, unsigned, std::uint64_t>;

    mutable std::mutex mu;
    std::map<Key, RunResult> cells;
    stats::StatGroup group{"result_cache"};
    mutable stats::AtomicScalar nHits;
    mutable stats::AtomicScalar nMisses;
    stats::AtomicScalar nEntries;
};

} // namespace triarch::study

#endif // TRIARCH_STUDY_RESULT_CACHE_HH
