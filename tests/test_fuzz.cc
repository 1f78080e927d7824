/**
 * @file
 * Tests for the config validator and the differential fuzz
 * subsystem: every validator rule fires with its typed field, the
 * enumerator is a pure function of its seed (same list at any
 * thread count), the differential runner is clean on valid configs
 * and thread-count independent, the minimizer shrinks a failing
 * config while keeping the failure, and the boundary shapes the
 * sweep covers (e.g. fewer beam elements than Raw tiles) complete
 * instead of hanging.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "imagine/kernels_imagine.hh"
#include "raw/kernels_raw.hh"
#include "study/config_check.hh"
#include "study/fuzz.hh"
#include "study/registry.hh"

namespace triarch::study
{
namespace
{

/** Valid non-default config, small enough to run everywhere. */
StudyConfig
tinyConfig()
{
    StudyConfig cfg;
    cfg.matrixSize = 64;
    cfg.cslc.subBands = 2;
    cfg.cslc.samples = (cfg.cslc.subBands - 1) * cfg.cslc.subBandStride
                       + cfg.cslc.subBandLen;
    cfg.beam.elements = 48;
    cfg.beam.directions = 2;
    cfg.beam.dwells = 1;
    cfg.jammerBins = {3, 50};
    return cfg;
}

/** The field of the first error, or "" when the config is valid. */
std::string
firstErrorField(const StudyConfig &cfg)
{
    auto err = validateConfig(cfg);
    return err ? err->field : "";
}

// ---------------------------------------------------------------
// ConfigValidator rules.
// ---------------------------------------------------------------

TEST(ConfigValidator, AcceptsPaperDefaultsAndTinyConfig)
{
    EXPECT_EQ(validateConfig(StudyConfig{}), std::nullopt);
    EXPECT_EQ(validateConfig(tinyConfig()), std::nullopt);
}

TEST(ConfigValidator, RejectsDegenerateMatrix)
{
    StudyConfig cfg = tinyConfig();
    cfg.matrixSize = 0;
    EXPECT_EQ(firstErrorField(cfg), "matrixSize");
    cfg.matrixSize = 1;
    EXPECT_EQ(firstErrorField(cfg), "matrixSize");
    cfg.matrixSize = 100;   // not a multiple of 64
    EXPECT_EQ(firstErrorField(cfg), "matrixSize");
    cfg.matrixSize = 64 * 1024;  // over the memory cap
    EXPECT_EQ(firstErrorField(cfg), "matrixSize");
}

TEST(ConfigValidator, RejectsBadSubBandLen)
{
    StudyConfig cfg = tinyConfig();
    cfg.cslc.subBandLen = 100;   // not a power of two
    cfg.cslc.samples = (cfg.cslc.subBands - 1) * cfg.cslc.subBandStride
                       + cfg.cslc.subBandLen;
    auto err = validateConfig(cfg);
    ASSERT_TRUE(err.has_value());
    EXPECT_EQ(err->field, "cslc.subBandLen");
    EXPECT_NE(err->message.find("power of two"), std::string::npos);

    cfg.cslc.subBandLen = 64;    // a power of two, but not 128
    cfg.cslc.samples = (cfg.cslc.subBands - 1) * cfg.cslc.subBandStride
                       + cfg.cslc.subBandLen;
    err = validateConfig(cfg);
    ASSERT_TRUE(err.has_value());
    EXPECT_EQ(err->field, "cslc.subBandLen");
    EXPECT_NE(err->message.find("128"), std::string::npos);
}

TEST(ConfigValidator, RejectsTilingMismatchAndDegenerateBands)
{
    StudyConfig cfg = tinyConfig();
    cfg.cslc.samples += 1;
    EXPECT_EQ(firstErrorField(cfg), "cslc.samples");

    cfg = tinyConfig();
    cfg.cslc.subBands = 0;
    EXPECT_EQ(firstErrorField(cfg), "cslc.subBands");

    cfg = tinyConfig();
    cfg.cslc.subBandStride = 0;
    cfg.cslc.samples = cfg.cslc.subBandLen;
    EXPECT_EQ(firstErrorField(cfg), "cslc.subBandStride");
}

TEST(ConfigValidator, RejectsUnsupportedChannelCounts)
{
    StudyConfig cfg = tinyConfig();
    cfg.cslc.mainChannels = 1;
    EXPECT_EQ(firstErrorField(cfg), "cslc.mainChannels");

    cfg = tinyConfig();
    cfg.cslc.auxChannels = 3;
    EXPECT_EQ(firstErrorField(cfg), "cslc.auxChannels");
}

TEST(ConfigValidator, RejectsOutOfRangeJammerBins)
{
    StudyConfig cfg = tinyConfig();
    cfg.jammerBins = {0, cfg.cslc.samples - 1};     // in range
    EXPECT_EQ(validateConfig(cfg), std::nullopt);

    cfg.jammerBins = {3, cfg.cslc.samples};         // one past the end
    auto err = validateConfig(cfg);
    ASSERT_TRUE(err.has_value());
    EXPECT_EQ(err->field, "jammerBins[1]");
}

TEST(ConfigValidator, RejectsDegenerateBeamShapes)
{
    StudyConfig cfg = tinyConfig();
    cfg.beam.elements = 0;
    EXPECT_EQ(firstErrorField(cfg), "beam.elements");

    cfg = tinyConfig();
    cfg.beam.directions = 0;
    EXPECT_EQ(firstErrorField(cfg), "beam.directions");

    cfg = tinyConfig();
    cfg.beam.dwells = 0;
    EXPECT_EQ(firstErrorField(cfg), "beam.dwells");

    cfg = tinyConfig();
    cfg.beam.shift = 32;
    EXPECT_EQ(firstErrorField(cfg), "beam.shift");
    cfg.beam.shift = 31;
    EXPECT_EQ(validateConfig(cfg), std::nullopt);
}

TEST(ConfigValidator, ReportsEveryViolationInOrder)
{
    StudyConfig cfg = tinyConfig();
    cfg.matrixSize = 100;
    cfg.beam.shift = 40;
    cfg.jammerBins = {cfg.cslc.samples + 5};
    const std::vector<ConfigError> errs = configErrors(cfg);
    ASSERT_EQ(errs.size(), 3u);
    EXPECT_EQ(errs[0].field, "matrixSize");
    EXPECT_EQ(errs[1].field, "jammerBins[0]");
    EXPECT_EQ(errs[2].field, "beam.shift");
    EXPECT_EQ(describe(errs[0]),
              "matrixSize: " + errs[0].message);
}

TEST(ConfigValidator, BuildWorkloadsExitsWithTypedError)
{
    StudyConfig cfg = tinyConfig();
    cfg.beam.shift = 33;
    EXPECT_EXIT(buildWorkloads(cfg), testing::ExitedWithCode(1),
                "invalid StudyConfig \\(beam.shift\\)");
}

// ---------------------------------------------------------------
// Enumerator determinism.
// ---------------------------------------------------------------

TEST(FuzzEnumerator, SameSeedSameListAtAnyThreadCount)
{
    FuzzOptions base;
    base.seed = 11;
    const std::vector<StudyConfig> expect = enumerateFuzzConfigs(base);
    EXPECT_FALSE(expect.empty());

    for (unsigned threads : {1u, 2u, 8u}) {
        FuzzOptions opts = base;
        opts.threads = threads;
        EXPECT_EQ(enumerateFuzzConfigs(opts), expect)
            << threads << " threads";
    }
}

TEST(FuzzEnumerator, DifferentSeedsDiffer)
{
    FuzzOptions a, b;
    a.seed = 11;
    b.seed = 12;
    EXPECT_NE(enumerateFuzzConfigs(a), enumerateFuzzConfigs(b));
}

TEST(FuzzEnumerator, CoversValidAndInvalidConfigs)
{
    FuzzOptions opts;
    const std::vector<StudyConfig> configs =
        enumerateFuzzConfigs(opts);
    const auto invalid = std::count_if(
        configs.begin(), configs.end(),
        [](const StudyConfig &c) {
            return validateConfig(c).has_value();
        });
    EXPECT_GT(invalid, 0);
    EXPECT_GT(static_cast<long>(configs.size()) - invalid, 0);
}

// ---------------------------------------------------------------
// Differential runner.
// ---------------------------------------------------------------

TEST(DifferentialFuzz, CleanOnValidConfigAcrossThreadCounts)
{
    for (unsigned threads : {1u, 2u, 8u}) {
        FuzzOptions opts;
        opts.threads = threads;
        const auto detail =
            checkConfigDifferential(tinyConfig(), opts);
        EXPECT_EQ(detail, std::nullopt) << threads << " threads";
    }
}

TEST(DifferentialFuzz, SmallSweepIsCleanAndThreadIndependent)
{
    FuzzOptions base;
    base.includeBoundary = false;
    base.randomConfigs = 6;

    std::optional<FuzzReport> first;
    for (unsigned threads : {1u, 2u, 8u}) {
        FuzzOptions opts = base;
        opts.threads = threads;
        const FuzzReport report = runDifferentialFuzz(opts);
        EXPECT_TRUE(report.clean()) << threads << " threads";
        EXPECT_EQ(report.configs.size(), 6u);
        if (!first) {
            first = report;
            continue;
        }
        // The whole report — config list, rejections, failure set —
        // must not depend on the thread count.
        EXPECT_EQ(report.configs, first->configs);
        ASSERT_EQ(report.rejected.size(), first->rejected.size());
        for (std::size_t i = 0; i < report.rejected.size(); ++i) {
            EXPECT_EQ(report.rejected[i].config,
                      first->rejected[i].config);
            EXPECT_EQ(report.rejected[i].error,
                      first->rejected[i].error);
        }
        EXPECT_EQ(report.cellsChecked, first->cellsChecked);
    }
}

/** A registry whose one mapping goes wrong beyond 10 elements. */
const MappingRegistry &
buggyRegistry()
{
    static const MappingRegistry reg = [] {
        MappingRegistry r;
        r.add(MachineId::Viram, KernelId::BeamSteering,
              [](const StudyConfig &cfg, const Workloads &) {
                  RunResult res;
                  res.machine = MachineId::Viram;
                  res.kernel = KernelId::BeamSteering;
                  res.cycles = cfg.beam.outputs();
                  res.validated = cfg.beam.elements <= 10;
                  return res;
              });
        return r;
    }();
    return reg;
}

TEST(DifferentialFuzz, FlagsAndMinimizesABuggyMapping)
{
    // The differential runner must flag the bad mapping, and the
    // minimizer must shrink the reproducer while keeping it failing
    // (elements stays > 10).
    const MappingRegistry &buggy = buggyRegistry();

    FuzzOptions opts;
    opts.includeBoundary = false;
    opts.randomConfigs = 0;
    opts.mappings = &buggy;
    opts.cells = {{MachineId::Viram, KernelId::BeamSteering}};

    StudyConfig cfg = tinyConfig();
    cfg.beam.elements = 160;

    const auto detail = checkConfigDifferential(cfg, opts);
    ASSERT_TRUE(detail.has_value());
    EXPECT_NE(detail->find("failed reference validation"),
              std::string::npos);

    const StudyConfig min = minimizeFailure(cfg, opts);
    EXPECT_GT(min.beam.elements, 10u);
    EXPECT_LT(min.beam.elements, 160u);
    EXPECT_EQ(min.beam.directions, 1u);
    EXPECT_TRUE(checkConfigDifferential(min, opts).has_value());
    EXPECT_EQ(validateConfig(min), std::nullopt);

    // The reproducer string names the hash so a failure can be
    // replayed exactly.
    EXPECT_NE(describeConfig(min).find("hash=0x"), std::string::npos);
}

TEST(DifferentialFuzz, ReportCarriesMinimizedFailuresWithHashes)
{
    FuzzOptions opts;
    opts.includeBoundary = false;
    opts.randomConfigs = 4;
    opts.mappings = &buggyRegistry();
    opts.cells = {{MachineId::Viram, KernelId::BeamSteering}};

    const FuzzReport report = runDifferentialFuzz(opts);
    EXPECT_FALSE(report.clean());
    for (const FuzzFailure &f : report.failures) {
        EXPECT_EQ(f.configHash, studyConfigHash(f.config));
        EXPECT_FALSE(f.detail.empty());
        // Minimization never shrinks past the point where the
        // failure disappears.
        EXPECT_GT(f.config.beam.elements, 10u);
    }
}

// ---------------------------------------------------------------
// Boundary regressions the sweep flushed out.
// ---------------------------------------------------------------

TEST(FuzzRegressions, RawBeamSteeringWithFewerElementsThanTiles)
{
    // elements < 16 leaves Raw tiles with nothing to do; the mapping
    // used to enqueue zero-word DMA segments for them, which the
    // machine never retires — the run hung forever. Completing at
    // all (validated, bit-identical serially and in parallel) is the
    // regression test.
    StudyConfig cfg = tinyConfig();
    cfg.beam.elements = 5;
    ASSERT_EQ(validateConfig(cfg), std::nullopt);

    FuzzOptions opts;
    opts.cells = {{MachineId::Raw, KernelId::BeamSteering}};
    EXPECT_EQ(checkConfigDifferential(cfg, opts), std::nullopt);
}

TEST(FuzzRegressions, SingleElementSingleBandConfigRunsEverywhere)
{
    StudyConfig cfg = tinyConfig();
    cfg.beam.elements = 1;
    cfg.beam.directions = 1;
    cfg.beam.dwells = 1;
    cfg.cslc.subBands = 1;
    cfg.cslc.samples = cfg.cslc.subBandLen;
    cfg.jammerBins = {7};
    ASSERT_EQ(validateConfig(cfg), std::nullopt);

    FuzzOptions opts;
    EXPECT_EQ(checkConfigDifferential(cfg, opts), std::nullopt);
}

// ---------------------------------------------------------------
// The claims-only CSLC variants on the fuzz configs.
// ---------------------------------------------------------------

TEST(CslcVariants, StreamedRawAndIndependentImagineValidOnFuzzConfigs)
{
    // Raw's stream mode and Imagine's independent per-cluster FFTs
    // are measured only by claims rows at the paper's shape. The
    // boundary set holds configs (e.g. 2 sub-bands) where the
    // canceller nulls the output, so only the reference's operation
    // order passes validation there.
    FuzzOptions opts;
    opts.seed = 11;
    opts.randomConfigs = 16;
    unsigned checked = 0;
    for (const StudyConfig &cfg : enumerateFuzzConfigs(opts)) {
        if (validateConfig(cfg))
            continue;           // invalid-on-purpose boundary config
        ++checked;
        SCOPED_TRACE(describeConfig(cfg));
        const auto work = buildWorkloads(cfg);
        kernels::CslcOutput out;
        raw::RawMachine rawMachine;
        raw::cslcRawStreamed(rawMachine, cfg.cslc, work->cslcIn,
                             work->weights, out);
        EXPECT_TRUE(cslcOutputValid(cfg, *work, out,
                                    kernels::FftAlgo::Radix2))
            << "raw stream mode";
        imagine::ImagineMachine imagineMachine;
        imagine::cslcImagineIndependent(imagineMachine, cfg.cslc,
                                        work->cslcIn, work->weights,
                                        out);
        EXPECT_TRUE(cslcOutputValid(cfg, *work, out,
                                    kernels::FftAlgo::Mixed128))
            << "imagine independent FFTs";
    }
    EXPECT_GE(checked, 30u) << "fuzz config list shrank unexpectedly";
}

} // namespace
} // namespace triarch::study
