#include "result_cache.hh"

namespace triarch::study
{

ResultCache::ResultCache()
{
    group.addAtomicScalar("hits", &nHits,
                          "lookups served from the cache");
    group.addAtomicScalar("misses", &nMisses,
                          "lookups that had to recompute");
    group.addAtomicScalar("entries", &nEntries,
                          "cells currently cached");
}

std::optional<RunResult>
ResultCache::get(MachineId machine, KernelId kernel,
                 std::uint64_t config_hash) const
{
    const Key key{static_cast<unsigned>(machine),
                  static_cast<unsigned>(kernel), config_hash};
    std::lock_guard<std::mutex> lock(mu);
    auto it = cells.find(key);
    if (it == cells.end()) {
        ++nMisses;
        return std::nullopt;
    }
    ++nHits;
    return it->second;
}

void
ResultCache::put(const RunResult &result, std::uint64_t config_hash)
{
    const Key key{static_cast<unsigned>(result.machine),
                  static_cast<unsigned>(result.kernel), config_hash};
    std::lock_guard<std::mutex> lock(mu);
    cells.insert_or_assign(key, result);
    nEntries.set(cells.size());
}

std::size_t
ResultCache::size() const
{
    std::lock_guard<std::mutex> lock(mu);
    return cells.size();
}

} // namespace triarch::study
