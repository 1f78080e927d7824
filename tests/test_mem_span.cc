/**
 * @file
 * Differential tests for the span-batched memory model (DESIGN D13).
 * Span mode — way-predicted cache hits, TLB page runs, bulk span
 * classification in the machine models — is an optimization of the
 * word-at-a-time reference walks, never a semantic change: every
 * primitive and every study-level PPC/AltiVec/VIRAM cell must
 * produce bit-identical timing, statistics, and D9 cycle partitions
 * under both models, serially and at every thread count (mirroring
 * the Raw stepper contract in test_raw_event.cc). Imagine has one
 * DRAM walk, so its cells have nothing to compare here.
 */

#include <gtest/gtest.h>

#include "mem/cache.hh"
#include "mem/mem_mode.hh"
#include "sim/rng.hh"
#include "study/fuzz.hh"
#include "study/parallel.hh"

// --- Primitive-level equivalence --------------------------------------

namespace triarch::mem
{
namespace
{

TEST(MemSpanPrimitives, CacheAccessFastMatchesAccess)
{
    // Drive one cache through the way-predicted prefilter (fast hit
    // or fall back to the full access) and a twin through access()
    // alone; state and counters must stay identical throughout.
    const CacheConfig cfg{"t.l1", 4 * 1024, 4, 32};
    SetAssocCache fast(cfg), ref(cfg);
    Rng rng(42);
    for (unsigned i = 0; i < 20000; ++i) {
        // A mix of streaming runs (memo hits), set-thrashing strides
        // (memo misses + replacements), and random probes.
        Addr a;
        switch (i % 3) {
          case 0: a = (i / 3) * 4 % 8192; break;
          case 1: a = (i % 64) * 4096; break;
          default: a = rng.nextBelow(64 * 1024) & ~Addr{3}; break;
        }
        const bool w = (rng.next() & 1) != 0;
        if (!fast.accessFast(a, w)) {
            const auto rf = fast.access(a, w);
            const auto rr = ref.access(a, w);
            EXPECT_EQ(rf.hit, rr.hit) << "access " << i;
            EXPECT_EQ(rf.writebackAddr, rr.writebackAddr)
                << "access " << i;
        } else {
            EXPECT_TRUE(ref.access(a, w).hit) << "access " << i;
        }
        ASSERT_EQ(fast.hits(), ref.hits()) << "access " << i;
        ASSERT_EQ(fast.misses(), ref.misses()) << "access " << i;
        ASSERT_EQ(fast.writebacks(), ref.writebacks())
            << "access " << i;
    }
    for (Addr a = 0; a < 64 * 1024; a += 32)
        EXPECT_EQ(fast.contains(a), ref.contains(a)) << a;
}

TEST(MemSpanPrimitives, TlbAccessRunMatchesLoop)
{
    Tlb run("t.run", 8, 4096, 25);
    Tlb loop("t.loop", 8, 4096, 25);
    Rng rng(7);
    Cycles runPenalty = 0, loopPenalty = 0;
    for (unsigned i = 0; i < 4000; ++i) {
        // More pages than entries, so the walks keep evicting.
        const Addr a = rng.nextBelow(24) * 4096 + rng.nextBelow(4096);
        const std::uint64_t n = 1 + rng.nextBelow(6);
        runPenalty += run.accessRun(a, n);
        for (std::uint64_t k = 0; k < n; ++k)
            loopPenalty += loop.access(a);
        ASSERT_EQ(run.hits(), loop.hits()) << "round " << i;
        ASSERT_EQ(run.misses(), loop.misses()) << "round " << i;
    }
    // accessRun reports only the first access's penalty; the others
    // always hit, so the totals agree too.
    EXPECT_EQ(runPenalty, loopPenalty);
}

} // namespace
} // namespace triarch::mem

// --- Study-level differential -----------------------------------------

namespace triarch::study
{
namespace
{

/** RAII override of the process-wide default memory model. */
class MemModelOverride
{
  public:
    explicit MemModelOverride(mem::MemModel m)
        : saved(mem::defaultMemModel())
    {
        mem::setDefaultMemModel(m);
    }
    ~MemModelOverride() { mem::setDefaultMemModel(saved); }

  private:
    mem::MemModel saved;
};

/** Every cell whose machine reads mem::defaultMemModel() (D13). */
std::vector<Cell>
spanCells()
{
    std::vector<Cell> cells;
    for (const MachineId m :
         {MachineId::PpcScalar, MachineId::PpcAltivec, MachineId::Viram}) {
        for (const KernelId k :
             {KernelId::CornerTurn, KernelId::Cslc,
              KernelId::BeamSteering}) {
            cells.push_back({m, k});
        }
    }
    return cells;
}

TEST(MemSpanDifferential, DefaultConfigPinnedPartitions)
{
    // The default study config, both models: bit-identical results,
    // and the D9 partition stays an exact partition. Two cells are
    // pinned to the committed Table-3 baseline numbers so a drift
    // that slipped past the differential (both modes wrong the same
    // way) still trips here.
    const StudyConfig cfg;
    std::vector<RunResult> span, ref;
    {
        MemModelOverride guard(mem::MemModel::Span);
        ParallelRunner runner(cfg, 1, nullptr,
                              ParallelRunner::noCache());
        span = runner.runCells(spanCells());
    }
    {
        MemModelOverride guard(mem::MemModel::Reference);
        ParallelRunner runner(cfg, 1, nullptr,
                              ParallelRunner::noCache());
        ref = runner.runCells(spanCells());
    }
    ASSERT_EQ(span.size(), ref.size());
    for (std::size_t i = 0; i < span.size(); ++i) {
        EXPECT_EQ(span[i], ref[i]) << "cell " << i;
        EXPECT_EQ(span[i].breakdown.categorySum(),
                  span[i].breakdown.total)
            << "cell " << i;
        EXPECT_EQ(span[i].breakdown.total, span[i].cycles)
            << "cell " << i;
    }
    for (const RunResult &r : span) {
        using stats::CycleCategory;
        if (r.machine == MachineId::PpcScalar
            && r.kernel == KernelId::CornerTurn) {
            // bench/baselines/BENCH_table3.json, ppc/ct.
            EXPECT_EQ(r.cycles, 25261710u);
            EXPECT_EQ(r.breakdown[CycleCategory::Compute], 2916352u);
            EXPECT_EQ(r.breakdown[CycleCategory::CacheStall],
                      7340032u);
            EXPECT_EQ(r.breakdown[CycleCategory::DramDma], 15005326u);
        }
        if (r.machine == MachineId::Viram
            && r.kernel == KernelId::CornerTurn) {
            // bench/baselines/BENCH_table3.json, viram/ct.
            EXPECT_EQ(r.cycles, 519037u);
            EXPECT_EQ(r.breakdown[CycleCategory::DramDma], 519036u);
            EXPECT_EQ(r.breakdown[CycleCategory::NetworkSync], 1u);
        }
    }
}

TEST(MemSpanDifferential, BoundaryConfigsAcrossThreadCounts)
{
    // The fuzz sweep's hand-written boundary configs, every span
    // machine and kernel, reference at one thread against span at
    // 1/2/8 threads.
    FuzzOptions opts;
    opts.randomConfigs = 0;
    const std::vector<Cell> cells = spanCells();

    unsigned checked = 0;
    for (const StudyConfig &cfg : enumerateFuzzConfigs(opts)) {
        if (validateConfig(cfg))
            continue;           // invalid-on-purpose boundary config
        if (checked == 6)
            break;              // keep the suite seconds-fast
        ++checked;
        SCOPED_TRACE(describeConfig(cfg));

        std::vector<RunResult> expect;
        {
            MemModelOverride guard(mem::MemModel::Reference);
            ParallelRunner runner(cfg, 1, nullptr,
                                  ParallelRunner::noCache());
            expect = runner.runCells(cells);
        }
        MemModelOverride guard(mem::MemModel::Span);
        for (const unsigned threads : {1u, 2u, 8u}) {
            ParallelRunner runner(cfg, threads, nullptr,
                                  ParallelRunner::noCache());
            const std::vector<RunResult> got = runner.runCells(cells);
            ASSERT_EQ(got.size(), expect.size());
            for (std::size_t i = 0; i < expect.size(); ++i) {
                EXPECT_EQ(got[i], expect[i])
                    << threads << " threads, cell " << i;
            }
        }
    }
    EXPECT_GE(checked, 4u) << "boundary set shrank unexpectedly";
}

} // namespace
} // namespace triarch::study
