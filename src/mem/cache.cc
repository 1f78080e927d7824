#include "cache.hh"

#include <algorithm>

#include "sim/bitutil.hh"
#include "sim/logging.hh"

namespace triarch::mem
{

SetAssocCache::SetAssocCache(const CacheConfig &cache_config)
    : cfg(cache_config), group(cfg.name)
{
    triarch_assert(isPowerOf2(cfg.lineBytes), "line size must be 2^n");
    triarch_assert(cfg.assoc > 0, "associativity must be positive");
    triarch_assert(cfg.sizeBytes % (cfg.lineBytes * cfg.assoc) == 0,
                   "size must divide into sets");
    numSets = cfg.sizeBytes / (cfg.lineBytes * cfg.assoc);
    triarch_assert(isPowerOf2(numSets), "set count must be 2^n");
    lineShift = floorLog2(cfg.lineBytes);
    setShift = floorLog2(numSets);
    tags.assign(numSets * cfg.assoc, ~Addr{0});
    lastUse.assign(numSets * cfg.assoc, 0);
    flags.assign(numSets * cfg.assoc, 0);
    wayMemo.assign(numSets, {});

    group.addScalar("hits", &_hits, "cache hits");
    group.addScalar("misses", &_misses, "cache misses");
    group.addScalar("writebacks", &_writebacks, "dirty lines written back");
}

CacheResult
SetAssocCache::missFill(Addr lineAddr, bool write)
{
    const std::uint64_t set = lineAddr & (numSets - 1);
    const std::uint64_t base = set * cfg.assoc;
    ++_misses;

    // True LRU with invalid ways first: invalid ways keep a zero
    // stamp and valid ways are stamped >= 1, so the earliest-minimum
    // scan lands on the first invalid way when one exists and on the
    // least recently used line otherwise.
    unsigned victim = 0;
    std::uint64_t oldest = lastUse[base];
    for (unsigned w = 1; w < cfg.assoc; ++w) {
        if (lastUse[base + w] < oldest) {
            oldest = lastUse[base + w];
            victim = w;
        }
    }

    CacheResult result{false, std::nullopt};
    if (flags[base + victim]) {
        // Only a resident line can be dirty, so no validity check.
        ++_writebacks;
        const Addr victimAddr =
            (tags[base + victim] * numSets + set) * cfg.lineBytes;
        result.writebackAddr = victimAddr;
    }

    tags[base + victim] = lineAddr >> setShift;
    lastUse[base + victim] = useClock;
    flags[base + victim] = write ? 1 : 0;
    wayMemo[set] = {lineAddr, static_cast<std::uint32_t>(base + victim)};
    return result;
}

bool
SetAssocCache::contains(Addr addr) const
{
    const Addr lineAddr = addr >> lineShift;
    const std::uint64_t base = (lineAddr & (numSets - 1)) * cfg.assoc;
    const Addr tag = lineAddr >> setShift;
    for (unsigned w = 0; w < cfg.assoc; ++w) {
        if (tags[base + w] == tag)
            return true;
    }
    return false;
}

void
SetAssocCache::flush()
{
    std::fill(tags.begin(), tags.end(), ~Addr{0});
    std::fill(lastUse.begin(), lastUse.end(), 0);
    std::fill(flags.begin(), flags.end(), std::uint8_t{0});
    // A matching way memo is a proof of residency, and nothing is
    // resident any more.
    std::fill(wayMemo.begin(), wayMemo.end(), WayMemo{});
}

Tlb::Tlb(std::string tlb_name, unsigned tlb_entries, Addr page_bytes,
         Cycles miss_penalty)
    : entries(tlb_entries), pageShift(floorLog2(page_bytes)),
      missPenalty(miss_penalty), table(tlb_entries),
      group(std::move(tlb_name))
{
    triarch_assert(entries > 0, "TLB needs entries");
    triarch_assert(page_bytes >= 4, "page too small");
    triarch_assert(isPowerOf2(page_bytes), "page size must be 2^n");
    group.addScalar("hits", &_hits, "TLB hits");
    group.addScalar("misses", &_misses, "TLB misses");
}

Cycles
Tlb::access(Addr addr)
{
    const Addr page = pageOf(addr);
    ++useClock;

    for (auto &e : table) {
        if (e.valid && e.page == page) {
            e.lastUse = useClock;
            ++_hits;
            return 0;
        }
    }

    ++_misses;
    Entry *victim = &table[0];
    for (auto &e : table) {
        if (!e.valid) {
            victim = &e;
            break;
        }
        if (e.lastUse < victim->lastUse)
            victim = &e;
    }
    *victim = {page, useClock, true};
    return missPenalty;
}

Cycles
Tlb::accessRun(Addr addr, std::uint64_t count)
{
    if (count == 0)
        return 0;
    const Addr page = pageOf(addr);
    // After the first access resolves the page, the remaining
    // count-1 accesses hit the same entry and only advance its LRU
    // stamp, so the final stamp is the clock after all of them.
    useClock += count;

    for (auto &e : table) {
        if (e.valid && e.page == page) {
            e.lastUse = useClock;
            _hits += count;
            return 0;
        }
    }

    // The victim choice matches what the first (missing) access saw:
    // no other entry's stamp changes during the run.
    ++_misses;
    if (count > 1)
        _hits += count - 1;
    Entry *victim = &table[0];
    for (auto &e : table) {
        if (!e.valid) {
            victim = &e;
            break;
        }
        if (e.lastUse < victim->lastUse)
            victim = &e;
    }
    *victim = {page, useClock, true};
    return missPenalty;
}

void
Tlb::flush()
{
    for (auto &e : table)
        e = Entry{};
}

} // namespace triarch::mem
