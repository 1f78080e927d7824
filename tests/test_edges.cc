/**
 * @file
 * Edge-case and contract tests: boundary conditions, misuse
 * detection (death tests on the panic/fatal paths), and the less
 * traveled corners of each machine's API. These document what the
 * library guarantees when it is driven wrongly or at its limits.
 */

#include <gtest/gtest.h>

#include "imagine/kernels_imagine.hh"
#include "mem/port.hh"
#include "ppc/kernels_ppc.hh"
#include "raw/kernels_raw.hh"
#include "sim/bitutil.hh"
#include "viram/kernels_viram.hh"

namespace triarch
{
namespace
{

// ---------------------------------------------------------------
// VIRAM contracts.
// ---------------------------------------------------------------

TEST(ViramEdges, RegisterOutOfRangeDies)
{
    viram::ViramConfig cfg;
    cfg.memBytes = 1 << 20;
    viram::ViramMachine m(cfg);
    m.setvl(8);
    EXPECT_DEATH(m.vaddI(32, 0, 1), "out of range");
}

TEST(ViramEdges, LoadOutsideDramDies)
{
    viram::ViramConfig cfg;
    cfg.memBytes = 1 << 16;
    viram::ViramMachine m(cfg);
    m.setvl(64);
    EXPECT_DEATH(m.vldUnit(4, cfg.memBytes - 16), "outside on-chip");
}

TEST(ViramEdges, PermuteIndexOutOfRangeDies)
{
    viram::ViramConfig cfg;
    cfg.memBytes = 1 << 20;
    viram::ViramMachine m(cfg);
    m.setvl(4);
    std::vector<std::uint16_t> bad{0, 1, 2, 200};
    EXPECT_DEATH(m.vperm2(4, 5, 6, bad), "index out of range");
}

TEST(ViramEdges, PermuteTableTooShortDies)
{
    viram::ViramConfig cfg;
    cfg.memBytes = 1 << 20;
    viram::ViramMachine m(cfg);
    m.setvl(8);
    std::vector<std::uint16_t> idx{0, 1};
    EXPECT_DEATH(m.vperm2(4, 5, 6, idx), "shorter than vl");
}

TEST(ViramEdges, PermuteAliasingSourcesIsSafe)
{
    viram::ViramConfig cfg;
    cfg.memBytes = 1 << 20;
    viram::ViramMachine m(cfg);
    const Addr a = m.alloc(64, "a");
    m.pokeWords(a, std::vector<Word>{10, 20, 30, 40});
    m.setvl(4);
    m.vldUnit(4, a);
    // Reverse in place: dst == src.
    std::vector<std::uint16_t> rev{3, 2, 1, 0};
    m.vperm2(4, 4, 4, rev);
    const Addr d = m.alloc(64, "d");
    m.vstUnit(4, d);
    EXPECT_EQ(m.peekWords(d, 4),
              (std::vector<Word>{40, 30, 20, 10}));
}

TEST(ViramEdges, OffchipDisabledByDefault)
{
    viram::ViramConfig cfg;
    cfg.memBytes = 1 << 16;
    EXPECT_DEATH(
        {
            viram::ViramMachine m(cfg);
            m.alloc(1 << 17, "too big");
        },
        "exhausted");
}

TEST(ViramEdges, OffchipAccessSlowerThanOnchip)
{
    viram::ViramConfig cfg;
    cfg.memBytes = 1 << 16;
    cfg.offchipBytes = 1 << 20;
    viram::ViramMachine m(cfg);
    m.setvl(64);

    m.resetTiming();
    m.vldUnit(4, 0);                    // on-chip
    const Cycles onchip = m.completionTime();
    m.resetTiming();
    m.vldUnit(4, cfg.memBytes + 64);    // off-chip DMA
    const Cycles offchip = m.completionTime();
    EXPECT_GT(offchip, 2 * onchip);
}

TEST(ViramEdges, CornerTurnRejectsBadRowBlock)
{
    viram::ViramConfig cfg;
    cfg.memBytes = 1 << 21;
    viram::ViramMachine m(cfg);
    kernels::WordMatrix src(128, 64);
    kernels::WordMatrix dst;
    EXPECT_DEATH(viram::cornerTurnViram(m, src, dst, 100),
                 "fit a vector register");
}

// ---------------------------------------------------------------
// Imagine contracts.
// ---------------------------------------------------------------

TEST(ImagineEdges, StreamPatternLengthMismatchDies)
{
    imagine::ImagineMachine m;
    const Addr a = m.allocMem(4096, "a");
    auto s = m.allocStream(64, "s");
    EXPECT_DEATH(
        m.loadStream(s, imagine::MemPattern::sequential(a, 128)),
        "length mismatch");
    m.freeStream(s);
}

TEST(ImagineEdges, LoadOutsideDramDies)
{
    imagine::ImagineConfig cfg;
    cfg.memBytes = 1 << 16;
    imagine::ImagineMachine m(cfg);
    auto s = m.allocStream(64, "s");
    EXPECT_DEATH(
        m.loadStream(s, imagine::MemPattern::sequential(
                            cfg.memBytes - 64, 64)),
        "outside DRAM");
    m.freeStream(s);
}

TEST(ImagineEdges, SrfDataOnInvalidStreamDies)
{
    imagine::ImagineMachine m;
    imagine::StreamRef invalid;
    EXPECT_DEATH(m.srfData(invalid), "invalid stream");
}

TEST(ImagineEdges, DoubleFreeDies)
{
    EXPECT_DEATH(
        {
            imagine::ImagineMachine m;
            auto s = m.allocStream(64, "s");
            m.freeStream(s);
            imagine::StreamRef copy = s;
            m.freeStream(copy);
        },
        "unknown SRF stream");
}

TEST(ImagineEdges, CslcMappingsRejectThreeAuxChannels)
{
    // Both mappings hold two aux spectra and two weight sets per
    // main channel; a 3-aux config must die before it writes past
    // them.
    kernels::CslcConfig cfg;
    cfg.auxChannels = 3;
    const kernels::CslcInput in;
    const kernels::CslcWeights weights;
    kernels::CslcOutput out;
    EXPECT_DEATH(
        {
            imagine::ImagineMachine m;
            imagine::cslcImagine(m, cfg, in, weights, out);
        },
        "2 main \\+ 2 aux");
    EXPECT_DEATH(
        {
            imagine::ImagineMachine m;
            imagine::cslcImagineIndependent(m, cfg, in, weights, out);
        },
        "2 main \\+ 2 aux");
}

TEST(ImagineEdges, WholeSrfAllocatable)
{
    imagine::ImagineMachine m;
    auto s = m.allocStream(
        static_cast<unsigned>(m.config().srfBytes / 4), "all");
    EXPECT_EQ(s.offsetWords, 0u);
    m.freeStream(s);
}

TEST(ImagineEdges, KernelWithZeroIterationsCostsOnlyPrologue)
{
    imagine::ImagineMachine m;
    imagine::KernelDesc d;
    d.iterations = 0;
    d.adds = 3;
    d.pipelineDepth = 10;
    m.runKernel(d, {}, {}, [] {});
    EXPECT_LE(m.completionTime(),
              m.config().hostIssueCycles + 10);
}

// ---------------------------------------------------------------
// Raw contracts.
// ---------------------------------------------------------------

TEST(RawEdges, LocalLoadOutOfBoundsDies)
{
    raw::RawMachine m;
    raw::Assembler as;
    as.li(1, static_cast<std::int32_t>(m.config().sramBytes));
    as.lw(2, 1, 0);
    as.halt();
    m.setProgram(0, as.finish());
    EXPECT_DEATH(m.run(), "outside SRAM");
}

TEST(RawEdges, GlobalStoreOutOfBoundsDies)
{
    raw::RawConfig cfg;
    cfg.globalBytes = 1 << 16;
    raw::RawMachine m(cfg);
    raw::Assembler as;
    as.li(1, static_cast<std::int32_t>(raw::globalBase + (1 << 16)));
    as.sw(1, 1, 0);
    as.halt();
    m.setProgram(0, as.finish());
    EXPECT_DEATH(m.run(), "outside global DRAM");
}

TEST(RawEdges, CstoWithoutRouteDies)
{
    raw::RawMachine m;
    raw::Assembler as;
    as.li(raw::regCsto, 1);
    as.halt();
    m.setProgram(0, as.finish());
    EXPECT_DEATH(m.run(), "without a configured route");
}

TEST(RawEdges, EmptyProgramTileIsHalted)
{
    raw::RawMachine m;
    // No programs at all: machine is immediately done.
    EXPECT_EQ(m.run(), 0u);
}

TEST(RawEdges, FifoBackpressureThrottlesSender)
{
    // A fast sender against a slow receiver must be limited by the
    // FIFO capacity, not run ahead unboundedly.
    raw::RawConfig cfg;
    cfg.fifoCapacity = 2;
    raw::RawMachine m(cfg);
    m.setRoute(0, 1);

    raw::Assembler src;
    for (int i = 0; i < 32; ++i)
        src.li(raw::regCsto, i);
    src.halt();
    m.setProgram(0, src.finish());

    raw::Assembler dst;
    dst.li(2, 32);
    raw::Label loop = dst.label();
    dst.bind(loop);
    dst.move(1, raw::regCsti);
    dst.add(3, 3, 1);       // extra work: ~4 cycles per word
    dst.add(3, 3, 1);
    dst.addi(2, 2, -1);
    dst.bne(2, 0, loop);
    dst.halt();
    m.setProgram(1, dst.finish());

    const Cycles cycles = m.run();
    EXPECT_GE(cycles, 32u * 5);     // receiver-paced
    EXPECT_GT(m.netStalls(), 20u);  // sender actually blocked
}

TEST(RawEdges, PokeLocalOutOfBoundsDies)
{
    raw::RawMachine m;
    std::vector<Word> w(4);
    EXPECT_DEATH(m.pokeLocal(0, m.config().sramBytes - 4, w),
                 "outside tile SRAM");
}

TEST(RawEdges, BadRouteEndpointDies)
{
    raw::RawMachine m;
    EXPECT_DEATH(m.setRoute(0, 99), "bad route endpoint");
}

TEST(RawEdges, CornerTurnRejectsNonSquare)
{
    raw::RawMachine m;
    kernels::WordMatrix src(128, 64);
    kernels::WordMatrix dst;
    EXPECT_DEATH(raw::cornerTurnRaw(m, src, dst), "square matrix");
}

// ---------------------------------------------------------------
// PPC and substrate corners.
// ---------------------------------------------------------------

TEST(PpcEdges, ResetRestoresColdCaches)
{
    ppc::PpcMachine m;
    m.load(0x100);
    m.load(0x100);
    EXPECT_GT(m.cycles(), 0u);
    m.resetTiming();
    EXPECT_EQ(m.cycles(), 0u);
    // After reset the same load must miss again (cold cache).
    m.load(0x100);
    EXPECT_GE(m.cycles(), m.config().memLatency);
}

TEST(PpcEdges, CornerTurnRejectsBadBlockEdge)
{
    ppc::PpcMachine m;
    kernels::WordMatrix src(64, 64), dst;
    EXPECT_DEATH(ppc::cornerTurnPpc(m, src, dst, false, 6),
                 "multiple of 4");
}

TEST(PortEdges, FractionalRatesAccumulateExactly)
{
    // 4 words per 5 cycles: 1000 words must take exactly 1250.
    mem::BandwidthPort port("p", 4, 5);
    EXPECT_EQ(port.transferTime(1000), 1250u);
    // One word still costs at least a cycle (ceil).
    EXPECT_EQ(port.transferTime(1), 2u);
}

TEST(BitUtilEdges, RoundUpAndBitsBoundaries)
{
    EXPECT_EQ(roundUp(0, 8), 0u);
    EXPECT_EQ(bits(0xFF, 8, 8), 0u);
    EXPECT_EQ(reverseBits(0, 7), 0u);
    EXPECT_EQ(reverseBits(127, 7), 127u);
}

TEST(KernelEdges, CslcRejectsBadTiling)
{
    kernels::CslcConfig cfg;
    cfg.samples = 1000;     // does not tile into 73 x 128/112
    EXPECT_DEATH(kernels::makeJammedInput(cfg, {10}, 1),
                 "does not cover");
}

TEST(KernelEdges, TransposeShapeMismatchDies)
{
    kernels::WordMatrix src(4, 8);
    kernels::WordMatrix wrong(4, 8);
    EXPECT_DEATH(kernels::transposeNaive(src, wrong),
                 "shape mismatch");
}

TEST(KernelEdges, AltivecCornerTurnNeedsSidesOfFour)
{
    // The 4x4 register transposes would read and write past a 6x8
    // matrix; the scalar code handles any shape.
    ppc::PpcMachine m;
    kernels::WordMatrix src(6, 8), dst;
    kernels::fillMatrix(src, 3);
    EXPECT_DEATH(ppc::cornerTurnPpc(m, src, dst, true, 4),
                 "multiples of 4");
    ppc::cornerTurnPpc(m, src, dst, false, 4);
    EXPECT_TRUE(kernels::isTransposeOf(src, dst));
}

TEST(KernelEdges, SingleElementMatrix)
{
    kernels::WordMatrix src(1, 1), dst(1, 1);
    src.at(0, 0) = 7;
    kernels::transposeNaive(src, dst);
    EXPECT_EQ(dst.at(0, 0), 7u);
    EXPECT_TRUE(kernels::isTransposeOf(src, dst));
}

TEST(KernelEdges, BeamSteeringZeroDwells)
{
    kernels::BeamConfig cfg;
    cfg.dwells = 0;
    auto tables = kernels::makeBeamTables(cfg, 1);
    auto out = kernels::beamSteerReference(cfg, tables);
    EXPECT_TRUE(out.empty());
}

} // namespace
} // namespace triarch
