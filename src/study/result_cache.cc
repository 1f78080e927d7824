#include "result_cache.hh"

#include "sim/metrics.hh"

namespace triarch::study
{

ResultCache::ResultCache(Capacity cache_capacity) : cap(cache_capacity)
{
    group.addAtomicScalar("hits", &nHits,
                          "lookups served from the cache");
    group.addAtomicScalar("misses", &nMisses,
                          "lookups that had to recompute");
    group.addAtomicScalar("evictions", &nEvictions,
                          "cells dropped by the LRU capacity bound");
    group.addAtomicScalar("entries", &nEntries,
                          "cells currently cached");
    group.addAtomicScalar("bytes", &nBytes,
                          "approximate bytes currently cached");
}

std::size_t
ResultCache::entryBytes(const RunResult &result)
{
    // Struct payload plus per-note string/pair storage plus a rough
    // allowance for the list/map node bookkeeping. Exactness is not
    // the point; a stable, monotone estimate is.
    std::size_t bytes = sizeof(Entry) + 3 * sizeof(void *) + 64;
    for (const auto &[name, value] : result.notes) {
        (void)value;
        bytes += sizeof(std::pair<std::string, double>) + name.size();
    }
    return bytes;
}

void
ResultCache::updateGaugesLocked() const
{
    nEntries.set(lru.size());
    nBytes.set(bytesHeld);
}

void
ResultCache::enforceCapacityLocked()
{
    while (!lru.empty()
           && ((cap.maxEntries && lru.size() > cap.maxEntries)
               || (cap.maxBytes && bytesHeld > cap.maxBytes))) {
        const Entry &victim = lru.back();
        bytesHeld -= victim.bytes;
        index.erase(victim.key);
        lru.pop_back();
        ++nEvictions;
    }
    updateGaugesLocked();
}

std::optional<RunResult>
ResultCache::get(MachineId machine, KernelId kernel,
                 std::uint64_t config_hash) const
{
    const Key key{static_cast<unsigned>(machine),
                  static_cast<unsigned>(kernel), config_hash};
    std::lock_guard<std::mutex> lock(mu);
    auto it = index.find(key);
    if (it == index.end()) {
        ++nMisses;
        return std::nullopt;
    }
    ++nHits;
    lru.splice(lru.begin(), lru, it->second);
    return it->second->result;
}

void
ResultCache::put(const RunResult &result, std::uint64_t config_hash)
{
    const Key key{static_cast<unsigned>(result.machine),
                  static_cast<unsigned>(result.kernel), config_hash};
    const std::size_t bytes = entryBytes(result);
    std::lock_guard<std::mutex> lock(mu);
    auto it = index.find(key);
    if (it != index.end()) {
        bytesHeld -= it->second->bytes;
        it->second->result = result;
        it->second->bytes = bytes;
        bytesHeld += bytes;
        lru.splice(lru.begin(), lru, it->second);
    } else {
        lru.push_front(Entry{key, result, bytes});
        index.emplace(key, lru.begin());
        bytesHeld += bytes;
    }
    enforceCapacityLocked();
}

void
ResultCache::setCapacity(Capacity cache_capacity)
{
    std::lock_guard<std::mutex> lock(mu);
    cap = cache_capacity;
    enforceCapacityLocked();
}

ResultCache::Capacity
ResultCache::capacity() const
{
    std::lock_guard<std::mutex> lock(mu);
    return cap;
}

std::size_t
ResultCache::size() const
{
    std::lock_guard<std::mutex> lock(mu);
    return lru.size();
}

std::size_t
ResultCache::approxBytes() const
{
    std::lock_guard<std::mutex> lock(mu);
    return bytesHeld;
}

void
ResultCache::clear()
{
    std::lock_guard<std::mutex> lock(mu);
    lru.clear();
    index.clear();
    bytesHeld = 0;
    nHits.reset();
    nMisses.reset();
    nEvictions.reset();
    updateGaugesLocked();
}

std::uint64_t
ResultCache::hits() const
{
    return nHits.value();
}

std::uint64_t
ResultCache::misses() const
{
    return nMisses.value();
}

std::uint64_t
ResultCache::evictions() const
{
    return nEvictions.value();
}

ResultCache &
ResultCache::global()
{
    static ResultCache cache(
        Capacity{4096, std::size_t{256} * 1024 * 1024});
    static const bool registered = [] {
        metrics::MetricsRegistry::global().registerLive(&cache.group);
        return true;
    }();
    (void)registered;
    return cache;
}

} // namespace triarch::study
