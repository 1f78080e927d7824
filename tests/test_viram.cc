/**
 * @file
 * Tests for the VIRAM machine model: functional semantics of the
 * vector ISA, scoreboard timing properties (issue rate, chaining,
 * unit restrictions, address-generator limits), memory-system
 * overheads, and end-to-end kernel correctness against the reference
 * implementations.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "kernels/fft.hh"
#include "sim/bitutil.hh"
#include "sim/rng.hh"
#include "viram/kernels_viram.hh"
#include "viram/machine.hh"

namespace triarch::viram
{
namespace
{

using kernels::cfloat;

ViramConfig
testConfig()
{
    ViramConfig cfg;
    cfg.memBytes = 2 * 1024 * 1024;     // keep tests light
    return cfg;
}

TEST(ViramMachine, PokePeekRoundTrip)
{
    ViramMachine m(testConfig());
    const Addr a = m.alloc(64, "buf");
    std::vector<Word> data{1, 2, 3, 4};
    m.pokeWords(a, data);
    EXPECT_EQ(m.peekWords(a, 4), data);
}

TEST(ViramMachine, AllocRespectsAlignmentAndBounds)
{
    ViramMachine m(testConfig());
    const Addr a = m.alloc(10, "a");
    const Addr b = m.alloc(10, "b");
    EXPECT_EQ(a % 64, 0u);
    EXPECT_EQ(b % 64, 0u);
    EXPECT_GE(b, a + 10);
    EXPECT_DEATH(
        {
            ViramMachine small(testConfig());
            small.alloc(3 * 1024 * 1024, "too big");
        },
        "exhausted");
}

TEST(ViramMachine, SetvlClampsToMax)
{
    ViramMachine m(testConfig());
    EXPECT_EQ(m.setvl(100), 64u);
    EXPECT_EQ(m.setvl(5), 5u);
}

TEST(ViramMachine, UnitLoadStoreMovesData)
{
    ViramMachine m(testConfig());
    const Addr src = m.alloc(256, "src");
    const Addr dst = m.alloc(256, "dst");
    std::vector<Word> data(64);
    for (unsigned i = 0; i < 64; ++i)
        data[i] = i * 3 + 1;
    m.pokeWords(src, data);

    m.setvl(64);
    m.vldUnit(4, src);
    m.vstUnit(4, dst);
    EXPECT_EQ(m.peekWords(dst, 64), data);
}

TEST(ViramMachine, StridedLoadGathers)
{
    ViramMachine m(testConfig());
    const Addr src = m.alloc(1024, "src");
    std::vector<Word> data(256);
    for (unsigned i = 0; i < 256; ++i)
        data[i] = i;
    m.pokeWords(src, data);

    m.setvl(8);
    m.vldStride(4, src, 16);    // every 4th word
    const Addr dst = m.alloc(64, "dst");
    m.vstUnit(4, dst);
    auto out = m.peekWords(dst, 8);
    for (unsigned i = 0; i < 8; ++i)
        EXPECT_EQ(out[i], i * 4);
}

TEST(ViramMachine, IntArithmeticAndShifts)
{
    ViramMachine m(testConfig());
    const Addr a = m.alloc(64, "a");
    std::vector<Word> data{8, 16, static_cast<Word>(-32), 64};
    m.pokeWords(a, data);

    m.setvl(4);
    m.vldUnit(4, a);
    m.vaddIs(5, 4, 100);
    m.vsraI(6, 4, 2);
    m.vshlI(7, 4, 1);
    m.vaddI(8, 5, 7);

    const Addr d = m.alloc(64, "d");
    m.vstUnit(6, d);
    auto sra = m.peekWords(d, 4);
    EXPECT_EQ(static_cast<std::int32_t>(sra[2]), -8);
    m.vstUnit(8, d);
    auto sum = m.peekWords(d, 4);
    EXPECT_EQ(sum[0], 8u + 100 + 16);
}

TEST(ViramMachine, FloatArithmetic)
{
    ViramMachine m(testConfig());
    const Addr a = m.alloc(64, "a");
    std::vector<Word> data{floatToWord(1.5f), floatToWord(-2.0f)};
    m.pokeWords(a, data);

    m.setvl(2);
    m.vldUnit(4, a);
    m.vmulF(5, 4, 4);
    m.vaddF(6, 4, 5);
    m.vnegF(7, 6);
    m.vscaleF(8, 7, 0.5f);

    const Addr d = m.alloc(64, "d");
    m.vstUnit(8, d);
    auto out = m.peekWords(d, 2);
    // x=1.5: (1.5 + 2.25) = 3.75; neg -> -3.75; scale -> -1.875
    EXPECT_FLOAT_EQ(wordToFloat(out[0]), -1.875f);
    EXPECT_FLOAT_EQ(wordToFloat(out[1]), -(-2.0f + 4.0f) * 0.5f);
}

TEST(ViramMachine, PermuteTwoSources)
{
    ViramMachine m(testConfig());
    const Addr a = m.alloc(512, "a");
    std::vector<Word> data(128);
    for (unsigned i = 0; i < 128; ++i)
        data[i] = 1000 + i;
    m.pokeWords(a, data);

    m.setvl(64);
    m.vldUnit(4, a);
    m.vldUnit(5, a + 256);
    std::vector<std::uint16_t> idx(64);
    for (unsigned i = 0; i < 64; ++i)
        idx[i] = static_cast<std::uint16_t>(127 - i);   // reverse concat
    m.vperm2(6, 4, 5, idx);

    const Addr d = m.alloc(256, "d");
    m.vstUnit(6, d);
    auto out = m.peekWords(d, 64);
    for (unsigned i = 0; i < 64; ++i)
        EXPECT_EQ(out[i], 1000u + 127 - i);
}

// ---------------------------------------------------------------
// Timing properties.
// ---------------------------------------------------------------

TEST(ViramTiming, IndependentOpsPipelineOnOneUnit)
{
    ViramMachine m(testConfig());
    m.setvl(64);
    const Cycles t0 = m.completionTime();
    // 10 independent FP ops on VAU0: unit busy 8 cycles each.
    for (unsigned i = 0; i < 10; ++i)
        m.vmulF(4 + (i % 4), 8, 9);
    const Cycles dt = m.completionTime() - t0;
    // Occupancy-limited: ~10 * 8 plus one startup, not 10 * (8 + s).
    EXPECT_GE(dt, 80u);
    EXPECT_LE(dt, 80u + 2 * m.config().arithStartup + 2);
}

TEST(ViramTiming, ChainingKeepsDependentChainOccupancyBound)
{
    ViramConfig cfg = testConfig();
    ViramMachine m(cfg);
    m.setvl(64);
    m.vbcast(4, 1);
    const Cycles t0 = m.completionTime();
    for (unsigned i = 0; i < 10; ++i)
        m.vaddF(5 + (i % 2), 5 + ((i + 1) % 2), 4);
    const Cycles dt = m.completionTime() - t0;
    // With chaining a dependent same-unit chain costs about the unit
    // occupancy (10 x 8), not busy + startup per hop.
    EXPECT_GE(dt, 10u * 8);
    EXPECT_LE(dt, 10u * 8 + 3 * cfg.arithStartup + cfg.chainLatency);
}

TEST(ViramTiming, WithoutChainingDependentChainPaysFullLatency)
{
    ViramConfig cfg = testConfig();
    cfg.chainLatency = 1000;    // effectively disables chaining
    ViramMachine m(cfg);
    m.setvl(64);
    m.vbcast(4, 1);
    const Cycles t0 = m.completionTime();
    for (unsigned i = 0; i < 10; ++i)
        m.vaddF(5 + (i % 2), 5 + ((i + 1) % 2), 4);
    const Cycles dt = m.completionTime() - t0;
    // Every hop now waits for the producer's full vector.
    EXPECT_GE(dt, 10u * (8 + cfg.arithStartup) - cfg.arithStartup - 8);
}

TEST(ViramTiming, FloatOpsSerializeOnVau0)
{
    ViramMachine m(testConfig());
    m.setvl(64);
    const Cycles t0 = m.completionTime();
    for (unsigned i = 0; i < 8; ++i)
        m.vmulF(4 + (i % 4), 8, 9);     // independent
    const Cycles fpTime = m.completionTime() - t0;

    ViramMachine m2(testConfig());
    m2.setvl(64);
    const Cycles t1 = m2.completionTime();
    for (unsigned i = 0; i < 8; ++i)
        m2.vaddI(4 + (i % 4), 8, 9);    // independent, dual-issue VAUs
    const Cycles intTime = m2.completionTime() - t1;

    // Integer work spreads over two VAUs and finishes in about half
    // the time of FP work pinned to VAU0 (Section 4.3's 1.52x).
    EXPECT_GT(fpTime, intTime + intTime / 3);
}

TEST(ViramTiming, StridedLoadsSlowerThanUnit)
{
    ViramMachine m(testConfig());
    const Addr a = m.alloc(1 << 20, "buf");
    m.setvl(64);

    m.resetTiming();
    for (unsigned i = 0; i < 32; ++i)
        m.vldUnit(4, a + i * 256);
    const Cycles unit = m.completionTime();

    m.resetTiming();
    for (unsigned i = 0; i < 32; ++i)
        m.vldStride(4, a + i * 4, 4096);
    const Cycles strided = m.completionTime();

    // 8 words/cycle unit vs 4 words/cycle strided plus row overhead.
    EXPECT_GT(strided, 3 * unit / 2);
}

TEST(ViramTiming, RowOverheadAccountedForStridedWalk)
{
    ViramMachine m(testConfig());
    const Addr a = m.alloc(1 << 20, "buf");
    m.setvl(64);
    m.resetTiming();
    m.vldStride(4, a, 4096);        // one element per row
    EXPECT_GT(m.rowOverheadCycles(), 0u);
    EXPECT_GT(m.statGroup().scalar("row_misses"), 0u);
}

TEST(ViramTiming, ResetTimingClearsClockAndStats)
{
    ViramMachine m(testConfig());
    m.setvl(64);
    m.vaddI(4, 5, 6);
    EXPECT_GT(m.completionTime(), 0u);
    m.resetTiming();
    EXPECT_EQ(m.completionTime(), 0u);
    EXPECT_EQ(m.vectorInstructions(), 0u);
}

TEST(ViramTiming, DescribeMentionsKeyResources)
{
    ViramMachine m(testConfig());
    const std::string d = m.describe();
    EXPECT_NE(d.find("address generators"), std::string::npos);
    EXPECT_NE(d.find("DRAM"), std::string::npos);
}

// ---------------------------------------------------------------
// The register-resident FFT building block.
// ---------------------------------------------------------------

TEST(ViramFft, MatchesReferenceFft)
{
    ViramMachine m(testConfig());
    ViramFft128 fft(m);

    std::vector<cfloat> x(128);
    for (unsigned i = 0; i < 128; ++i) {
        x[i] = cfloat(std::sin(0.1f * i), std::cos(0.3f * i));
    }

    const Addr buf = m.alloc(1024, "time");
    std::vector<Word> words(256);
    for (unsigned i = 0; i < 128; ++i) {
        words[2 * i] = floatToWord(x[i].real());
        words[2 * i + 1] = floatToWord(x[i].imag());
    }
    m.pokeWords(buf, words);

    const Addr planes = m.alloc(1024, "planes");
    fft.loadTimeBlock(buf);
    fft.transform(false);
    fft.storePlanes(planes);

    auto ref = x;
    kernels::fftRadix2(ref);

    auto got = m.peekWords(planes, 256);
    for (unsigned i = 0; i < 128; ++i) {
        const float re =
            wordToFloat(got[(i < 64 ? 0 : 64) + (i % 64)]);
        const float im =
            wordToFloat(got[128 + (i < 64 ? 0 : 64) + (i % 64)]);
        EXPECT_NEAR(re, ref[i].real(), 1e-3);
        EXPECT_NEAR(im, ref[i].imag(), 1e-3);
    }
}

TEST(ViramFft, InverseRoundTrip)
{
    ViramMachine m(testConfig());
    ViramFft128 fft(m);

    std::vector<Word> words(256);
    for (unsigned i = 0; i < 128; ++i) {
        words[2 * i] = floatToWord(0.25f * static_cast<float>(i % 7));
        words[2 * i + 1] = floatToWord(-0.5f + 0.01f * i);
    }
    const Addr buf = m.alloc(1024, "time");
    m.pokeWords(buf, words);

    const Addr planes = m.alloc(1024, "planes");
    fft.loadTimeBlock(buf);
    fft.transform(false);
    fft.storePlanes(planes);
    fft.loadPlanes(planes);
    fft.transform(true);
    const Addr planes2 = m.alloc(1024, "planes2");
    fft.storePlanes(planes2);

    auto got = m.peekWords(planes2, 256);
    for (unsigned i = 0; i < 128; ++i) {
        const float re =
            wordToFloat(got[(i < 64 ? 0 : 64) + (i % 64)]);
        const float im =
            wordToFloat(got[128 + (i < 64 ? 0 : 64) + (i % 64)]);
        EXPECT_NEAR(re, wordToFloat(words[2 * i]), 1e-4);
        EXPECT_NEAR(im, wordToFloat(words[2 * i + 1]), 1e-4);
    }
}

TEST(ViramFft, UsesPermShuffles)
{
    ViramMachine m(testConfig());
    ViramFft128 fft(m);
    const Addr buf = m.alloc(1024, "time");
    m.resetTiming();
    fft.loadTimeBlock(buf);
    fft.transform(false);
    // 7 stages x (4 gathers + 4 scatters) = 56 shuffles (the input
    // bit-reversal is folded into the first stage's gather tables).
    EXPECT_EQ(m.permInstructions(), 56u);
}

// ---------------------------------------------------------------
// End-to-end kernels vs reference.
// ---------------------------------------------------------------

TEST(ViramKernels, CornerTurnSmallMatchesReference)
{
    ViramMachine m(testConfig());
    kernels::WordMatrix src(128, 64);
    kernels::fillMatrix(src, 5);
    kernels::WordMatrix dst;
    const Cycles cycles = cornerTurnViram(m, src, dst);
    EXPECT_TRUE(kernels::isTransposeOf(src, dst));
    EXPECT_GT(cycles, 0u);
}

TEST(ViramKernels, CornerTurnStridedLoadsDominateMemory)
{
    ViramMachine m(testConfig());
    kernels::WordMatrix src(128, 64);
    kernels::fillMatrix(src, 6);
    kernels::WordMatrix dst;
    cornerTurnViram(m, src, dst);
    // Loads are strided (4/cycle), stores unit (8/cycle): VMU busy
    // must exceed the pure word count / 8.
    const std::uint64_t words = 2ULL * src.rows * src.cols;
    EXPECT_GT(m.vmuBusy(), words / 8);
}

TEST(ViramKernels, BeamSteeringMatchesReference)
{
    ViramMachine m(testConfig());
    kernels::BeamConfig cfg;
    cfg.elements = 200;     // keep the test fast; includes a tail group
    cfg.dwells = 2;
    auto tables = kernels::makeBeamTables(cfg, 3);
    auto ref = kernels::beamSteerReference(cfg, tables);

    std::vector<std::int32_t> out;
    const Cycles cycles = beamSteeringViram(m, cfg, tables, out);
    EXPECT_EQ(out, ref);
    EXPECT_GT(cycles, 0u);
}

TEST(ViramKernels, CslcMatchesReferenceApproximately)
{
    ViramMachine m(testConfig());
    kernels::CslcConfig cfg;
    cfg.subBands = 5;
    cfg.samples = (cfg.subBands - 1) * cfg.subBandStride
                  + cfg.subBandLen;
    auto in = kernels::makeJammedInput(cfg, {100, 351}, 17);
    auto weights = kernels::estimateWeights(cfg, in);
    // The VIRAM mapping computes radix-2 FFTs; validate against the
    // radix-2 reference so radix rounding differences (amplified by
    // the cancellation subtract of near-equal large spectra) do not
    // mask real mapping bugs.
    auto ref = kernels::cslcReference(cfg, in, weights,
                                      kernels::FftAlgo::Radix2);

    kernels::CslcOutput out;
    const Cycles cycles = cslcViram(m, cfg, in, weights, out);
    EXPECT_GT(cycles, 0u);

    double maxErr = 0.0;
    for (unsigned mc = 0; mc < cfg.mainChannels; ++mc) {
        for (std::size_t i = 0; i < ref.main[mc].size(); ++i) {
            maxErr = std::max<double>(
                maxErr, std::abs(ref.main[mc][i] - out.main[mc][i]));
        }
    }
    // Radix-2 (VIRAM) vs mixed-radix (reference) rounding differs.
    EXPECT_LT(maxErr, 1e-2);
}

TEST(ViramKernels, CslcCancelsJammer)
{
    ViramMachine m(testConfig());
    kernels::CslcConfig cfg;
    cfg.subBands = 8;
    cfg.samples = (cfg.subBands - 1) * cfg.subBandStride
                  + cfg.subBandLen;
    auto in = kernels::makeJammedInput(cfg, {200}, 23);
    auto weights = kernels::estimateWeights(cfg, in);

    kernels::CslcOutput out;
    cslcViram(m, cfg, in, weights, out);
    EXPECT_GT(kernels::cancellationDepthDb(cfg, in, out), 15.0);
}

} // namespace
} // namespace triarch::viram

// Re-opened for the indexed (gather/scatter) memory operations.
namespace triarch::viram
{
namespace
{

TEST(ViramIndexed, GatherCollectsArbitraryElements)
{
    ViramConfig cfg;
    cfg.memBytes = 1 << 20;
    ViramMachine m(cfg);
    const Addr table = m.alloc(1024, "table");
    std::vector<Word> data(256);
    for (unsigned i = 0; i < 256; ++i)
        data[i] = 1000 + i;
    m.pokeWords(table, data);

    const Addr idxMem = m.alloc(64, "idx");
    m.pokeWords(idxMem, std::vector<Word>{250, 3, 99, 0});

    m.setvl(4);
    m.vldUnit(4, idxMem);       // index vector
    m.vldIndexed(5, table, 4);  // gather
    const Addr d = m.alloc(64, "d");
    m.vstUnit(5, d);
    EXPECT_EQ(m.peekWords(d, 4),
              (std::vector<Word>{1250, 1003, 1099, 1000}));
}

TEST(ViramIndexed, ScatterWritesArbitraryElements)
{
    ViramConfig cfg;
    cfg.memBytes = 1 << 20;
    ViramMachine m(cfg);
    const Addr dst = m.alloc(1024, "dst");
    const Addr idxMem = m.alloc(64, "idx");
    const Addr valMem = m.alloc(64, "val");
    m.pokeWords(idxMem, std::vector<Word>{7, 0, 200});
    m.pokeWords(valMem, std::vector<Word>{70, 80, 90});

    m.setvl(3);
    m.vldUnit(4, idxMem);
    m.vldUnit(5, valMem);
    m.vstIndexed(5, dst, 4);
    EXPECT_EQ(m.peekWords(dst + 7 * 4, 1)[0], 70u);
    EXPECT_EQ(m.peekWords(dst, 1)[0], 80u);
    EXPECT_EQ(m.peekWords(dst + 200 * 4, 1)[0], 90u);
}

TEST(ViramIndexed, GatherRunsAtAddressGeneratorRate)
{
    ViramConfig cfg;
    cfg.memBytes = 1 << 20;
    ViramMachine m(cfg);
    const Addr table = m.alloc(1 << 16, "table");
    const Addr idxMem = m.alloc(256, "idx");
    std::vector<Word> idx(64);
    for (unsigned i = 0; i < 64; ++i)
        idx[i] = i * 7 % 4096;
    m.pokeWords(idxMem, idx);

    m.setvl(64);
    m.vldUnit(4, idxMem);
    m.resetTiming();
    m.vldIndexed(5, table, 4);
    // At least ceil(64/4) = 16 VMU cycles; more with row overheads.
    EXPECT_GE(m.vmuBusy(), 16u);
}

TEST(ViramIndexed, GatherOutOfRangeDies)
{
    ViramConfig cfg;
    cfg.memBytes = 1 << 16;
    ViramMachine m(cfg);
    const Addr idxMem = m.alloc(64, "idx");
    m.pokeWords(idxMem, std::vector<Word>{1 << 20});
    m.setvl(1);
    m.vldUnit(4, idxMem);
    EXPECT_DEATH(m.vldIndexed(5, 0, 4), "outside on-chip");
}

// ---------------------------------------------------------------
// The strided span walk against the per-element gather walk. A
// strided access batches its bank/row and TLB classification into
// interleave-chunk and page runs (D13); a gather over the same
// addresses walks the same state one element at a time. Twin
// machines issuing the two must leave every memory counter equal.
// ---------------------------------------------------------------

struct SpanWalkGeometry
{
    unsigned banks;
    Addr rowBytes;
    Addr interleaveBytes;
    Addr pageBytes;
    unsigned tlbEntries;
};

/** The counters both walks must agree on, in a printable row. */
std::vector<std::uint64_t>
memCounters(ViramMachine &m)
{
    stats::StatGroup &g = m.statGroup();
    stats::StatGroup &tlb = *m.componentGroups().at(0).second;
    return {g.scalar("row_misses"), g.scalar("row_overhead"),
            g.scalar("tlb_overhead"), g.scalar("mem_words"),
            tlb.scalar("hits"), tlb.scalar("misses")};
}

/** Run @p ops seeded strided ops on one twin and the matching
 *  gathers/scatters on the other; the number of ops whose counters
 *  diverged. */
unsigned
spanWalkMismatches(const SpanWalkGeometry &geo, std::uint64_t seed,
                   unsigned ops)
{
    ViramConfig cfg;
    cfg.memBytes = 8 * 1024 * 1024;
    cfg.banks = geo.banks;
    cfg.rowBytes = geo.rowBytes;
    cfg.bankInterleaveBytes = geo.interleaveBytes;
    cfg.pageBytes = geo.pageBytes;
    cfg.tlbEntries = geo.tlbEntries;
    ViramMachine strided(cfg), gather(cfg);

    // Strides that stay in one chunk, step across chunk, row and page
    // boundaries, land exactly on them, or repeat one address.
    const Addr ilv = geo.interleaveBytes, page = geo.pageBytes;
    const std::vector<Addr> strides = {
        0, 4, 8, 12, 28, ilv - 4, ilv, ilv + 4, geo.rowBytes,
        page - 4, page, page + 4, 2 * page + 12, 3 * ilv / 2 + 4};

    const Addr idxAddr = cfg.memBytes - 4 * cfg.maxVl;
    constexpr Vreg vidx = 4, vdata = 5;
    Rng rng(seed);
    Addr addr = 0;
    unsigned mismatches = 0;
    for (unsigned op = 0; op < ops; ++op) {
        const unsigned vl =
            1 + static_cast<unsigned>(rng.nextBelow(cfg.maxVl));
        Addr stride = rng.nextBelow(4) == 0
                          ? 4 * rng.nextBelow(page / 2 + 1)
                          : strides[rng.nextBelow(strides.size())];
        // Keep the whole access on chip and below the index vector.
        const Addr reach = static_cast<Addr>(vl - 1) * stride;
        if (reach + 4 > idxAddr)
            stride = 4;
        const Addr room = idxAddr - static_cast<Addr>(vl - 1) * stride;
        // Half the ops stay near the last one, so TLB entries and open
        // rows are reused; the rest jump anywhere.
        addr = rng.nextBelow(2) == 0
                   ? std::min<Addr>(addr + 4 * rng.nextBelow(2 * page),
                                    room - 4)
                   : 4 * rng.nextBelow(room / 4);
        addr &= ~Addr{3};

        std::vector<Word> idx(vl);
        for (unsigned i = 0; i < vl; ++i)
            idx[i] = static_cast<Word>((addr + i * stride) / 4);
        const bool load = rng.nextBelow(2) == 0;
        for (ViramMachine *m : {&strided, &gather}) {
            m->setvl(vl);
            m->pokeWords(idxAddr, idx);
            m->vldUnit(vidx, idxAddr);
        }
        if (load) {
            strided.vldStride(vdata, addr, stride);
            gather.vldIndexed(vdata, 0, vidx);
        } else {
            strided.vstStride(vdata, addr, stride);
            gather.vstIndexed(vdata, 0, vidx);
        }
        const auto want = memCounters(gather);
        const auto got = memCounters(strided);
        if (got != want) {
            if (++mismatches <= 3) {
                ADD_FAILURE() << "op " << op << (load ? " load" : " store")
                              << " vl " << vl << " addr " << addr
                              << " stride " << stride;
            }
        }
    }
    return mismatches;
}

TEST(ViramSpanWalk, StridedMatchesGatherWalk)
{
    // Every geometry is a power of two (the constructor asserts it);
    // they differ in which boundary a stride crosses first.
    const SpanWalkGeometry geometries[] = {
        {8, 2048, 2048, 32 * 1024, 32},     // the research chip
        {4, 1024, 256, 4096, 8},            // chunk < row < page
        {16, 512, 64, 8192, 4},             // many small chunks
        {2, 256, 4096, 1024, 16},           // chunk > row, page
        {1, 64, 16, 256, 2},                // one bank, tiny pages
    };
    unsigned total = 0, bad = 0;
    std::uint64_t seed = 0x51de;
    for (const SpanWalkGeometry &geo : geometries) {
        SCOPED_TRACE(testing::Message()
                     << geo.banks << " banks, row " << geo.rowBytes
                     << ", interleave " << geo.interleaveBytes
                     << ", page " << geo.pageBytes);
        bad += spanWalkMismatches(geo, seed++, 2400);
        total += 2400;
    }
    EXPECT_EQ(bad, 0u) << "of " << total << " ops";
}

TEST(ViramSpanWalk, NonPowerOfTwoGeometryDies)
{
    ViramConfig cfg = testConfig();
    cfg.banks = 6;
    EXPECT_DEATH(ViramMachine{cfg}, "powers of two");
    cfg = testConfig();
    cfg.rowBytes = 1536;
    EXPECT_DEATH(ViramMachine{cfg}, "powers of two");
    cfg = testConfig();
    cfg.bankInterleaveBytes = 3072;
    EXPECT_DEATH(ViramMachine{cfg}, "powers of two");
}

} // namespace
} // namespace triarch::viram
