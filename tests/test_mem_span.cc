/**
 * @file
 * Witness tests for the span-batched memory walk (DESIGN D13), the
 * one memory walk of the G4/AltiVec and VIRAM models. Each batched
 * primitive is checked against its word-at-a-time reference on every
 * access: the way-predicted cache hit against the full tag scan, and
 * a TLB page run against a loop of single translations. VIRAM's
 * strided chunk/page runs are checked against its per-element gather
 * walk in test_viram.cc. At study level, every G4/AltiVec/VIRAM cell
 * over the fuzz boundary configs must validate and match its serial
 * result at every thread count.
 */

#include <gtest/gtest.h>

#include "mem/cache.hh"
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

/** Every cell on the span walk: the G4, AltiVec and VIRAM. */
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

TEST(MemSpanDifferential, BoundaryConfigsAcrossThreadCounts)
{
    // The fuzz sweep's hand-written boundary configs, every span
    // machine and kernel: each cell validates, and 2 and 8 threads
    // match the serial run.
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

        ParallelRunner serial(cfg, 1, nullptr, ParallelRunner::noCache());
        const std::vector<RunResult> expect = serial.runCells(cells);
        for (const RunResult &r : expect)
            EXPECT_TRUE(r.validated) << machineName(r.machine) << " / "
                                     << kernelName(r.kernel);
        for (const unsigned threads : {2u, 8u}) {
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
