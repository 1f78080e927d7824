/**
 * @file
 * Unit tests for the memory substrate: DRAM timing (row hits/misses,
 * bank interleaving, bus occupancy), the set-associative cache, the
 * TLB, and bandwidth ports.
 */

#include <gtest/gtest.h>

#include <list>
#include <optional>
#include <vector>

#include "mem/cache.hh"
#include "mem/dram.hh"
#include "mem/port.hh"
#include "sim/rng.hh"

namespace triarch::mem
{
namespace
{

DramConfig
smallDram()
{
    DramConfig cfg;
    cfg.name = "test_dram";
    cfg.banks = 4;
    cfg.rowBytes = 256;
    cfg.bankInterleaveBytes = 256;
    cfg.timing = {2, 3, 3, 2};  // tCas, tRcd, tRp, 2 words/cycle
    return cfg;
}

TEST(Dram, FirstAccessPaysRowOpen)
{
    DramModel dram(smallDram());
    auto w = dram.access(0, 2, 0);
    // tRp + tRcd + tCas = 8, then 1 transfer cycle for 2 words.
    EXPECT_EQ(w.start, 8u);
    EXPECT_EQ(w.finish, 9u);
    EXPECT_EQ(dram.rowMisses(), 1u);
    EXPECT_EQ(dram.rowHits(), 0u);
}

TEST(Dram, OpenRowHitSkipsPrecharge)
{
    DramModel dram(smallDram());
    dram.access(0, 2, 0);
    const Cycles before = dram.busFreeAt();
    auto w = dram.access(8, 2, before);
    // Same row: only CAS then transfer.
    EXPECT_EQ(w.finish, before + 2 + 1);
    EXPECT_EQ(dram.rowHits(), 1u);
}

TEST(Dram, RowConflictPaysPrechargeAgain)
{
    DramModel dram(smallDram());
    dram.access(0, 2, 0);
    // Same bank (stride = banks * interleave), different row.
    auto w = dram.access(4 * 256, 2, dram.busFreeAt());
    EXPECT_EQ(dram.rowMisses(), 2u);
    EXPECT_GT(w.start, dram.rowHits());
}

TEST(Dram, SequentialStreamApproachesBusBandwidth)
{
    DramConfig cfg = smallDram();
    cfg.timing.busWordsPerCycle = 8;
    DramModel dram(cfg);

    // Stream 64 KB sequentially in row-sized bursts. All requests
    // are known up front (DMA-style), so they queue at cycle 0 and
    // the bank/bus state serializes them.
    const unsigned rows = 256;
    Cycles t = 0;
    for (unsigned r = 0; r < rows; ++r) {
        auto w = dram.access(r * 256, 64, 0);
        t = w.finish;
    }
    const std::uint64_t words = rows * 64;
    const double wordsPerCycle = static_cast<double>(words) / t;
    // Row opens rotate across 4 banks and overlap the bus; we should
    // land close to the 8 words/cycle bus limit.
    EXPECT_GT(wordsPerCycle, 6.0);
    EXPECT_LE(wordsPerCycle, 8.0);
}

TEST(Dram, RandomAccessIsRowMissBound)
{
    DramModel dram(smallDram());
    Cycles t = 0;
    // Hit the same bank with alternating rows: every access misses.
    for (unsigned i = 0; i < 100; ++i) {
        auto w = dram.access((i % 2) * 4 * 256, 1, t);
        t = w.finish;
    }
    EXPECT_EQ(dram.rowMisses(), 100u);
    // Each access pays at least tRp + tRcd + tCas + transfer.
    EXPECT_GE(t, 100u * 9u);
}

TEST(Dram, ResetClearsRowState)
{
    DramModel dram(smallDram());
    dram.access(0, 1, 0);
    dram.resetState();
    EXPECT_EQ(dram.busFreeAt(), 0u);
    dram.access(0, 1, 0);
    EXPECT_EQ(dram.rowMisses(), 2u);    // stats survive, rows do not
}

TEST(Dram, MultiRowBurstSplits)
{
    DramModel dram(smallDram());
    // 256-byte rows = 64 words; a 100-word burst spans two rows.
    dram.access(0, 100, 0);
    EXPECT_EQ(dram.rowHits() + dram.rowMisses(), 2u);
}

CacheConfig
smallCache()
{
    CacheConfig cfg;
    cfg.name = "test_cache";
    cfg.sizeBytes = 1024;
    cfg.assoc = 2;
    cfg.lineBytes = 32;     // 16 sets
    return cfg;
}

TEST(Cache, ColdMissThenHit)
{
    SetAssocCache cache(smallCache());
    EXPECT_FALSE(cache.access(0x100, false).hit);
    EXPECT_TRUE(cache.access(0x100, false).hit);
    EXPECT_TRUE(cache.access(0x11C, false).hit);    // same line
    EXPECT_EQ(cache.hits(), 2u);
    EXPECT_EQ(cache.misses(), 1u);
}

TEST(Cache, LruEvictionOrder)
{
    SetAssocCache cache(smallCache());
    // Three lines mapping to the same set (16 sets * 32B = 512B way).
    const Addr a = 0x0, b = 0x200, c = 0x400;
    cache.access(a, false);
    cache.access(b, false);
    cache.access(a, false);     // a is now MRU
    cache.access(c, false);     // evicts b (LRU)
    EXPECT_TRUE(cache.contains(a));
    EXPECT_FALSE(cache.contains(b));
    EXPECT_TRUE(cache.contains(c));
}

TEST(Cache, DirtyEvictionReportsWriteback)
{
    SetAssocCache cache(smallCache());
    cache.access(0x0, true);
    cache.access(0x200, false);
    auto r = cache.access(0x400, false);    // evicts dirty 0x0
    ASSERT_TRUE(r.writebackAddr.has_value());
    EXPECT_EQ(*r.writebackAddr, 0x0u);
    EXPECT_EQ(cache.writebacks(), 1u);
}

TEST(Cache, CleanEvictionHasNoWriteback)
{
    SetAssocCache cache(smallCache());
    cache.access(0x0, false);
    cache.access(0x200, false);
    auto r = cache.access(0x400, false);
    EXPECT_FALSE(r.writebackAddr.has_value());
}

TEST(Cache, WriteHitMarksDirty)
{
    SetAssocCache cache(smallCache());
    cache.access(0x0, false);
    cache.access(0x0, true);    // hit, marks dirty
    cache.access(0x200, false);
    auto r = cache.access(0x400, false);
    ASSERT_TRUE(r.writebackAddr.has_value());
}

TEST(Cache, FlushInvalidatesEverything)
{
    SetAssocCache cache(smallCache());
    cache.access(0x40, true);
    cache.flush();
    EXPECT_FALSE(cache.contains(0x40));
}

TEST(Cache, MissRate)
{
    SetAssocCache cache(smallCache());
    cache.access(0, false);
    cache.access(0, false);
    cache.access(0, false);
    cache.access(0, false);
    EXPECT_DOUBLE_EQ(cache.missRate(), 0.25);
}

TEST(Cache, StreamingWorkloadMissesOncePerLine)
{
    SetAssocCache cache(smallCache());
    for (Addr a = 0; a < 512; a += 4)
        cache.access(a, false);
    EXPECT_EQ(cache.misses(), 512u / 32u);
    EXPECT_EQ(cache.hits(), 512u / 4u - 512u / 32u);
}

/**
 * The plainest true-LRU write-back cache: one list of resident lines
 * per set, most recently used first. The oracle for the split
 * SetAssocCache::access (inline hit scan, out-of-line missFill).
 */
class ListLru
{
  public:
    explicit ListLru(const CacheConfig &cfg)
        : lineBytes(cfg.lineBytes), assoc(cfg.assoc),
          sets(cfg.sizeBytes / (cfg.lineBytes * cfg.assoc))
    {
    }

    CacheResult
    access(Addr addr, bool write)
    {
        const Addr line = addr / lineBytes;
        auto &set = sets[line % sets.size()];
        for (auto it = set.begin(); it != set.end(); ++it) {
            if (it->line == line) {
                const bool dirty = it->dirty || write;
                set.erase(it);
                set.push_front({line, dirty});
                ++hits;
                return {true, std::nullopt};
            }
        }
        ++misses;
        CacheResult r{false, std::nullopt};
        if (set.size() == assoc) {
            if (set.back().dirty) {
                ++writebacks;
                r.writebackAddr = set.back().line * lineBytes;
            }
            set.pop_back();
        }
        set.push_front({line, write});
        return r;
    }

    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t writebacks = 0;

  private:
    struct Line
    {
        Addr line;
        bool dirty;
    };

    Addr lineBytes;
    std::size_t assoc;
    std::vector<std::list<Line>> sets;
};

TEST(Cache, SplitAccessMatchesListLru)
{
    // Direct-mapped, 2-way, 8-way, and one fully associative set.
    const std::vector<CacheConfig> configs = {
        {"dm", 1024, 1, 32},
        {"two_way", 1024, 2, 32},
        {"eight_way", 2048, 8, 32},
        {"full", 512, 16, 32},
    };
    for (const CacheConfig &cfg : configs) {
        SCOPED_TRACE(cfg.name);
        SetAssocCache cache(cfg);
        ListLru oracle(cfg);
        Rng rng(0xC0FFEE + cfg.assoc);
        // A footprint of three cache capacities gives a steady mix of
        // hits, clean and dirty evictions.
        const Addr lines = 3 * cfg.sizeBytes / cfg.lineBytes;
        Addr addr = 0;
        std::uint64_t fastHits = 0;
        for (unsigned i = 0; i < 120000; ++i) {
            // Revisit the previous line often, so the way memo that
            // accessFast() probes matches a good share of the time.
            if (rng.nextBelow(4) != 0) {
                addr = rng.nextBelow(lines) * cfg.lineBytes
                       + rng.nextBelow(cfg.lineBytes);
            }
            const bool write = rng.nextBelow(2) == 0;
            const unsigned op = static_cast<unsigned>(rng.nextBelow(3));
            CacheResult got;
            if (op == 2 && cache.accessFast(addr, write)) {
                ++fastHits;
                got = {true, std::nullopt};
            } else {
                got = cache.access(addr, write);
            }
            const CacheResult want = oracle.access(addr, write);
            ASSERT_EQ(got.hit, want.hit) << "access " << i;
            ASSERT_EQ(got.writebackAddr, want.writebackAddr)
                << "access " << i;
            ASSERT_EQ(cache.hits(), oracle.hits) << "access " << i;
            ASSERT_EQ(cache.misses(), oracle.misses) << "access " << i;
            ASSERT_EQ(cache.writebacks(), oracle.writebacks)
                << "access " << i;
        }
        EXPECT_GT(fastHits, 1000u);
        EXPECT_GT(cache.writebacks(), 1000u);
    }
}

TEST(Tlb, HitAfterFill)
{
    Tlb tlb("t", 4, 4096, 25);
    EXPECT_EQ(tlb.access(0x1000), 25u);
    EXPECT_EQ(tlb.access(0x1FFC), 0u);
    EXPECT_EQ(tlb.misses(), 1u);
    EXPECT_EQ(tlb.hits(), 1u);
}

TEST(Tlb, LruReplacement)
{
    Tlb tlb("t", 2, 4096, 10);
    tlb.access(0x0000);
    tlb.access(0x1000);
    tlb.access(0x0000);         // page 0 MRU
    tlb.access(0x2000);         // evicts page 1
    EXPECT_EQ(tlb.access(0x0000), 0u);
    EXPECT_EQ(tlb.access(0x1000), 10u);
}

TEST(Tlb, FlushForgetsAll)
{
    Tlb tlb("t", 4, 4096, 25);
    tlb.access(0x0);
    tlb.flush();
    EXPECT_EQ(tlb.access(0x0), 25u);
}

TEST(Tlb, NonPowerOfTwoPageDies)
{
    // Pages are shifts, never divisions (pageOf).
    EXPECT_DEATH(Tlb("t", 4, 3 * 1024, 25), "page size must be 2\\^n");
    EXPECT_DEATH(Tlb("t", 4, 4100, 25), "page size must be 2\\^n");
}

TEST(Port, TransferTimeMatchesRate)
{
    BandwidthPort port("p", 2, 1);      // 2 words/cycle
    EXPECT_EQ(port.transferTime(8), 4u);
    BandwidthPort slow("s", 1, 5);      // 0.2 words/cycle
    EXPECT_EQ(slow.transferTime(2), 10u);
}

TEST(Port, SerializesOverlappingRequests)
{
    BandwidthPort port("p", 1, 1);
    EXPECT_EQ(port.transfer(10, 0), 10u);
    EXPECT_EQ(port.transfer(10, 5), 20u);   // must wait for first
    EXPECT_EQ(port.transfer(10, 100), 110u);
    EXPECT_EQ(port.wordsMoved(), 30u);
}

TEST(Port, ResetState)
{
    BandwidthPort port("p", 1, 1);
    port.transfer(10, 0);
    port.resetState();
    EXPECT_EQ(port.freeAt(), 0u);
}

} // namespace
} // namespace triarch::mem
