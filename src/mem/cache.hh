/**
 * @file
 * A set-associative write-back, write-allocate cache model with true
 * LRU replacement. Used for the PowerPC G4 L1/L2 hierarchy and for
 * Raw tiles running in cached (MIMD) mode.
 *
 * The model is timing-free: it classifies each access as hit or miss
 * and reports the dirty victim, and the owning machine model charges
 * whatever latency its memory system implies.
 *
 * Tag state is stored as parallel arrays (tags / lastUse / flags)
 * rather than an array of line structs: the way scan on every access
 * touches only the tag column, and the way-predicted fast path (D13)
 * re-probes each set's most recently touched line through
 * accessFast(), which skips the scan entirely. The per-set way memo
 * can never point at a replaced line: every eviction happens in
 * access()'s out-of-line missFill(), which rewrites the set's memo
 * with the line it installs. The MemSpanPrimitives tests check
 * accessFast() against access() on every access.
 */

#ifndef TRIARCH_MEM_CACHE_HH
#define TRIARCH_MEM_CACHE_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sim/stats.hh"
#include "sim/types.hh"

namespace triarch::mem
{

/** Cache geometry. Sizes must be powers of two. */
struct CacheConfig
{
    std::string name = "cache";
    std::uint64_t sizeBytes = 32 * 1024;
    unsigned assoc = 8;
    unsigned lineBytes = 32;
};

/** Outcome of one cache access. */
struct CacheResult
{
    bool hit = false;
    /** Line-aligned address of a dirty line evicted by this access. */
    std::optional<Addr> writebackAddr;
};

/** Set-associative LRU cache (tag store only). */
class SetAssocCache
{
  public:
    explicit SetAssocCache(const CacheConfig &cache_config);

    /**
     * Access one address. On a miss the line is allocated (evicting
     * the LRU way, reporting it if dirty). @p write marks the line
     * dirty on both hits and misses (write-allocate).
     *
     * The tag scan for a hit is inline: a G4 L1 miss runs it up to
     * three times (the L1 probe, the victim's writeback into L2 and
     * the L2 probe). Victim choice and fill stay out of line in
     * missFill().
     */
    CacheResult
    access(Addr addr, bool write)
    {
        const Addr lineAddr = addr >> lineShift;
        const std::uint64_t base = (lineAddr & (numSets - 1)) * cfg.assoc;
        const Addr tag = lineAddr >> setShift;
        ++useClock;

        // Invalid ways hold the ~0 tag sentinel (no simulated address
        // reaches it), so the hit scan is a pure tag compare.
        for (std::uint64_t slot = base; slot < base + cfg.assoc; ++slot) {
            if (tags[slot] == tag) {
                lastUse[slot] = useClock;
                if (write)
                    flags[slot] = 1;
                ++_hits;
                wayMemo[lineAddr & (numSets - 1)] = {
                    lineAddr, static_cast<std::uint32_t>(slot)};
                return {true, std::nullopt};
            }
        }
        return missFill(lineAddr, write);
    }

    /**
     * Way-predicted hit fast path (D13): if @p addr falls on the
     * line its set most recently hit or installed, apply the exact
     * hit effects of access() — LRU stamp, dirty flag, hit counter —
     * and return true. Otherwise leave all state unchanged and
     * return false so the caller falls back to access().
     *
     * Exact by construction: the way memo is only written by
     * access() pointing at a line it just proved (or made) resident,
     * and any eviction in a set rewrites that set's memo with the
     * newly installed line, so a matching memo is a proof of
     * residency.
     */
    bool
    accessFast(Addr addr, bool write)
    {
        const Addr lineAddr = addr >> lineShift;
        const std::uint64_t set = lineAddr & (numSets - 1);
        const WayMemo &memo = wayMemo[set];
        if (lineAddr != memo.lineAddr)
            return false;
        ++useClock;
        lastUse[memo.slot] = useClock;
        if (write)
            flags[memo.slot] = 1;
        ++_hits;
        return true;
    }

    /** Probe without changing any state. */
    bool contains(Addr addr) const;

    /** Invalidate everything; dirty lines are dropped silently. */
    void flush();

    std::uint64_t hits() const { return _hits.value(); }
    std::uint64_t misses() const { return _misses.value(); }
    std::uint64_t writebacks() const { return _writebacks.value(); }
    double
    missRate() const
    {
        const auto total = hits() + misses();
        return total ? static_cast<double>(misses()) / total : 0.0;
    }

    stats::StatGroup &statGroup() { return group; }
    const CacheConfig &config() const { return cfg; }

  private:
    /** The miss half of access() for line @p lineAddr (useClock
     *  already advanced): evict the LRU way and install the line. */
    CacheResult missFill(Addr lineAddr, bool write);

    CacheConfig cfg;
    std::uint64_t numSets;
    /** Geometry is power-of-two (asserted in the constructor), so
     *  set/tag extraction is shift-and-mask — this sits on every
     *  simulated load/store, where 64-bit division is measurable. */
    unsigned lineShift = 0;
    unsigned setShift = 0;
    /** numSets x assoc, row-major; ~0 = invalid (the sentinel is out
     *  of reach of any simulated address). */
    std::vector<Addr> tags;
    /** LRU stamps, same layout; 0 = invalid way (stamps start at 1),
     *  which folds invalid-first victim choice into the LRU argmin. */
    std::vector<std::uint64_t> lastUse;
    std::vector<std::uint8_t> flags;    //!< 1 = dirty, same layout

    /** The set's most recently hit or installed line, for the
     *  accessFast() way prediction. */
    struct WayMemo
    {
        Addr lineAddr = ~Addr{0};   //!< addr >> lineShift
        std::uint32_t slot = 0;     //!< set * assoc + way
    };
    std::vector<WayMemo> wayMemo;       //!< one per set
    std::uint64_t useClock = 0;

    stats::StatGroup group;
    stats::Scalar _hits;
    stats::Scalar _misses;
    stats::Scalar _writebacks;
};

/**
 * A fully associative TLB with LRU replacement and a fixed refill
 * penalty, matching the role TLB misses play in the VIRAM corner-turn
 * overhead breakdown.
 */
class Tlb
{
  public:
    Tlb(std::string tlb_name, unsigned tlb_entries, Addr page_bytes,
        Cycles miss_penalty);

    /** Translate; returns the refill penalty (0 on a hit). */
    Cycles access(Addr addr);

    /**
     * Translate @p count back-to-back accesses that all fall on the
     * page of @p addr. State and statistics end exactly as @p count
     * calls to access(addr) would leave them (the intermediate
     * accesses of a run can only hit the entry the first one
     * resolved, so one scan suffices); returns the refill penalty of
     * the first access (0 on a hit — the rest always hit).
     */
    Cycles accessRun(Addr addr, std::uint64_t count);

    void flush();

    std::uint64_t hits() const { return _hits.value(); }
    std::uint64_t misses() const { return _misses.value(); }
    stats::StatGroup &statGroup() { return group; }

  private:
    struct Entry
    {
        Addr page = ~Addr{0};
        std::uint64_t lastUse = 0;
        bool valid = false;
    };

    /** addr-to-page; the constructor asserts a power-of-two page.
     *  The page walk sits on every element of a strided access. */
    Addr pageOf(Addr addr) const { return addr >> pageShift; }

    unsigned entries;
    unsigned pageShift;         //!< log2(page bytes)
    Cycles missPenalty;
    std::vector<Entry> table;
    std::uint64_t useClock = 0;

    stats::StatGroup group;
    stats::Scalar _hits;
    stats::Scalar _misses;
};

} // namespace triarch::mem

#endif // TRIARCH_MEM_CACHE_HH
