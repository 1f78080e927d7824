/**
 * @file
 * Tests for the reference kernels: corner turn properties, beam
 * steering semantics, and the CSLC pipeline (including actual jammer
 * cancellation on synthetic data).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "kernels/beam_steering.hh"
#include "kernels/corner_turn.hh"
#include "kernels/cslc.hh"

namespace triarch::kernels
{
namespace
{

TEST(CornerTurn, NaiveTransposeCorrect)
{
    WordMatrix src(3, 5);
    fillMatrix(src, 1);
    WordMatrix dst(5, 3);
    transposeNaive(src, dst);
    EXPECT_TRUE(isTransposeOf(src, dst));
}

TEST(CornerTurn, TransposeIsInvolution)
{
    WordMatrix src(16, 8);
    fillMatrix(src, 2);
    WordMatrix once(8, 16), twice(16, 8);
    transposeNaive(src, once);
    transposeNaive(once, twice);
    EXPECT_EQ(src, twice);
}

class BlockSizes : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(BlockSizes, BlockedMatchesNaive)
{
    WordMatrix src(96, 64);
    fillMatrix(src, 3);
    WordMatrix naive(64, 96), blocked(64, 96);
    transposeNaive(src, naive);
    transposeBlocked(src, blocked, GetParam());
    EXPECT_EQ(naive, blocked);
}

INSTANTIATE_TEST_SUITE_P(Sweep, BlockSizes,
                         ::testing::Values(1u, 3u, 8u, 16u, 64u, 100u));

TEST(CornerTurn, FillIsDeterministicAndSeedSensitive)
{
    WordMatrix a(8, 8), b(8, 8), c(8, 8);
    fillMatrix(a, 42);
    fillMatrix(b, 42);
    fillMatrix(c, 43);
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
}

TEST(CornerTurn, IsTransposeDetectsShapeMismatch)
{
    WordMatrix src(4, 6), bad(4, 6);
    EXPECT_FALSE(isTransposeOf(src, bad));
}

TEST(CornerTurn, IsTransposeDetectsValueMismatch)
{
    WordMatrix src(4, 4);
    fillMatrix(src, 9);
    WordMatrix dst(4, 4);
    transposeNaive(src, dst);
    dst.at(2, 3) ^= 1;
    EXPECT_FALSE(isTransposeOf(src, dst));
}

TEST(CornerTurn, IsTransposeCatchesOneWordInEveryKindOfTile)
{
    // The compare runs in 16x16 tiles; 72x40 leaves a ragged 8x8
    // last tile in both dimensions.
    WordMatrix src(72, 40);
    fillMatrix(src, 5);
    WordMatrix dst(40, 72);
    transposeNaive(src, dst);
    ASSERT_TRUE(isTransposeOf(src, dst));

    struct Spot
    {
        const char *tile;
        unsigned r, c;      //!< source coordinates of the flip
    };
    for (const Spot &s : {Spot{"first", 0, 0}, Spot{"first", 15, 15},
                          Spot{"interior", 20, 17},
                          Spot{"ragged last", 64, 32},
                          Spot{"ragged last", 71, 39}}) {
        WordMatrix bad = dst;
        bad.at(s.c, s.r) ^= 0x8000'0000u;
        EXPECT_FALSE(isTransposeOf(src, bad))
            << s.tile << " tile, (" << s.r << ", " << s.c << ")";
    }

    // A shape that is not the transpose is a mismatch, not a crash.
    EXPECT_FALSE(isTransposeOf(src, WordMatrix(72, 40)));
    EXPECT_FALSE(isTransposeOf(src, WordMatrix(40, 71)));
}

TEST(BeamSteering, OutputCountMatchesConfig)
{
    BeamConfig cfg;
    cfg.elements = 10;
    cfg.directions = 3;
    cfg.dwells = 2;
    auto tables = makeBeamTables(cfg, 1);
    auto out = beamSteerReference(cfg, tables);
    EXPECT_EQ(out.size(), 60u);
}

TEST(BeamSteering, MatchesHandComputedValue)
{
    BeamConfig cfg;
    cfg.elements = 2;
    cfg.directions = 1;
    cfg.dwells = 1;
    cfg.shift = 2;

    BeamTables t;
    t.calCoarse = {100, 200};
    t.calFine = {10, 20};
    t.steerBase = {1000};
    t.steerDelta = {4};
    t.dwellOffset = {40};
    t.bias = 2;

    auto out = beamSteerReference(cfg, t);
    // e=0: acc=1004; t=110+1004+40+2=1156; >>2 = 289
    // e=1: acc=1008; t=220+1008+40+2=1270; >>2 = 317
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0], 289);
    EXPECT_EQ(out[1], 317);
}

TEST(BeamSteering, NegativeValuesShiftArithmetically)
{
    BeamConfig cfg;
    cfg.elements = 1;
    cfg.directions = 1;
    cfg.dwells = 1;
    cfg.shift = 4;

    BeamTables t;
    t.calCoarse = {-1000};
    t.calFine = {0};
    t.steerBase = {0};
    t.steerDelta = {0};
    t.dwellOffset = {0};
    t.bias = 0;

    auto out = beamSteerReference(cfg, t);
    EXPECT_EQ(out[0], -1000 >> 4);
    EXPECT_LT(out[0], 0);
}

TEST(BeamSteering, PaperConfigShape)
{
    BeamConfig cfg;
    EXPECT_EQ(cfg.elements, 1608u);
    EXPECT_EQ(cfg.directions, 4u);
    EXPECT_EQ(cfg.outputs(), 1608u * 4 * 8);
}

TEST(Cslc, SubBandTilingCoversInterval)
{
    CslcConfig cfg;
    EXPECT_EQ((cfg.subBands - 1) * cfg.subBandStride + cfg.subBandLen,
              cfg.samples);
    EXPECT_EQ(cfg.transforms(), 73u * 6);
}

class CslcPipeline : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        cfg = new CslcConfig();
        in = new CslcInput(
            makeJammedInput(*cfg, {300, 1700, 4090}, 11));
        weights = new CslcWeights(estimateWeights(*cfg, *in));
        out = new CslcOutput(cslcReference(*cfg, *in, *weights));
    }

    static void
    TearDownTestSuite()
    {
        delete out;
        delete weights;
        delete in;
        delete cfg;
    }

    static CslcConfig *cfg;
    static CslcInput *in;
    static CslcWeights *weights;
    static CslcOutput *out;
};

CslcConfig *CslcPipeline::cfg = nullptr;
CslcInput *CslcPipeline::in = nullptr;
CslcWeights *CslcPipeline::weights = nullptr;
CslcOutput *CslcPipeline::out = nullptr;

TEST_F(CslcPipeline, InputHasJammerDominatedPower)
{
    double mainPower = 0.0;
    for (const auto &v : in->main[0])
        mainPower += std::norm(v);
    mainPower /= cfg->samples;
    // Three unit-amplitude jammers dominate the 0.05-amplitude signal.
    EXPECT_GT(mainPower, 1.0);
}

TEST_F(CslcPipeline, CancellationDepthExceeds15dB)
{
    const double depth = cancellationDepthDb(*cfg, *in, *out);
    EXPECT_GT(depth, 15.0);
}

TEST_F(CslcPipeline, SignalOfInterestSurvives)
{
    // Output power should be near the signal-only level, far above
    // zero (the canceller must not null the whole band).
    double outPower = 0.0;
    for (const auto &v : out->main[0])
        outPower += std::norm(v);
    outPower /= out->main[0].size();
    const double signalPower = 2.0 * (0.05 * 0.05) / 3.0;  // E[re^2+im^2]
    EXPECT_GT(outPower, 0.05 * signalPower);
    EXPECT_LT(outPower, 20.0 * signalPower);
}

TEST_F(CslcPipeline, OutputShape)
{
    ASSERT_EQ(out->main.size(), cfg->mainChannels);
    EXPECT_EQ(out->main[0].size(),
              static_cast<std::size_t>(cfg->subBands) * cfg->subBandLen);
}

TEST(Cslc, ZeroWeightsPassMainThrough)
{
    CslcConfig cfg;
    cfg.subBands = 3;
    cfg.samples = (cfg.subBands - 1) * cfg.subBandStride
                  + cfg.subBandLen;
    auto in = makeJammedInput(cfg, {50}, 21);

    CslcWeights zero;
    zero.w.assign(cfg.mainChannels,
        std::vector<std::vector<cfloat>>(cfg.auxChannels,
            std::vector<cfloat>(cfg.subBands * 128ULL, cfloat(0, 0))));

    auto out = cslcReference(cfg, in, zero);
    // With zero weights the output is FFT->IFFT of the input blocks.
    for (unsigned b = 0; b < cfg.subBands; ++b) {
        for (unsigned k = 0; k < cfg.subBandLen; ++k) {
            const cfloat expect =
                in.main[0][b * cfg.subBandStride + k];
            const cfloat got = out.main[0][b * 128ULL + k];
            EXPECT_NEAR(std::abs(got - expect), 0.0, 1e-3);
        }
    }
}

TEST(Cslc, FlopCountDominatedByTransforms)
{
    CslcConfig cfg;
    const std::uint64_t flops = cslcFlops(cfg);
    const std::uint64_t transformFlops =
        cfg.transforms() * mixed128Ops().flops();
    EXPECT_GT(flops, transformFlops);
    EXPECT_LT(flops - transformFlops, transformFlops / 4);
}

} // namespace
} // namespace triarch::kernels
