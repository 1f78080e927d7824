/**
 * @file
 * Tests for the comparative-study framework: machine registry
 * (Tables 1-2), the Section 2.5 performance model, the experiment
 * runner, report building, and — most importantly — the paper's
 * headline shape: per-kernel architecture rankings and speedup
 * structure from Table 3 / Figures 8-9, measured end-to-end through
 * all four simulators.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "sim/json.hh"
#include "study/machine_info.hh"
#include "study/parallel.hh"
#include "study/perf_model.hh"
#include "study/report.hh"
#include "study/study_json.hh"

namespace triarch::study
{
namespace
{

TEST(MachineInfoTest, Table1Values)
{
    const auto &viram = machineInfo(MachineId::Viram);
    EXPECT_EQ(viram.onchipWordsPerCycle, 8.0);
    EXPECT_EQ(viram.offchipWordsPerCycle, 2.0);
    EXPECT_EQ(viram.computeWordsPerCycle, 8.0);

    const auto &imagine = machineInfo(MachineId::Imagine);
    EXPECT_EQ(imagine.onchipWordsPerCycle, 16.0);
    EXPECT_EQ(imagine.computeWordsPerCycle, 48.0);

    const auto &rawInfo = machineInfo(MachineId::Raw);
    EXPECT_EQ(rawInfo.offchipWordsPerCycle, 28.0);
}

TEST(MachineInfoTest, Table2Values)
{
    EXPECT_EQ(machineInfo(MachineId::PpcScalar).clockMhz, 1000u);
    EXPECT_EQ(machineInfo(MachineId::Viram).clockMhz, 200u);
    EXPECT_EQ(machineInfo(MachineId::Imagine).clockMhz, 300u);
    EXPECT_EQ(machineInfo(MachineId::Raw).clockMhz, 300u);
    EXPECT_DOUBLE_EQ(machineInfo(MachineId::Imagine).peakGflops, 14.4);
    EXPECT_EQ(machineInfo(MachineId::Imagine).numAlus, 48u);
}

TEST(MachineInfoTest, NamesAndLists)
{
    EXPECT_EQ(machineName(MachineId::Viram), "VIRAM");
    EXPECT_EQ(allMachines().size(), 5u);
    EXPECT_EQ(researchMachines().size(), 3u);
}

TEST(PerfModel, CornerTurnBounds)
{
    // 1024x1024: 1M words each way.
    const auto viram = cornerTurnBound(MachineId::Viram, 1024);
    EXPECT_EQ(viram.cycles, 1048576u / 4 + 1048576u / 8);

    const auto imagine = cornerTurnBound(MachineId::Imagine, 1024);
    EXPECT_EQ(imagine.cycles, 1048576u);

    const auto rawBound = cornerTurnBound(MachineId::Raw, 1024);
    EXPECT_EQ(rawBound.cycles, 2u * 1048576u / 16);
    EXPECT_NE(rawBound.resource.find("issue"), std::string::npos);

    // Shape: Raw's bound is by far the lowest (Section 4.2).
    EXPECT_LT(rawBound.cycles, viram.cycles);
    EXPECT_LT(viram.cycles, imagine.cycles);
}

TEST(PerfModel, CslcBoundsOrderedLikeThePaper)
{
    kernels::CslcConfig cfg;
    const auto viram = cslcBound(MachineId::Viram, cfg);
    const auto imagine = cslcBound(MachineId::Imagine, cfg);
    const auto rawBound = cslcBound(MachineId::Raw, cfg);
    // Imagine has the most flops/cycle; VIRAM the least (FP on one
    // VAU only). Raw pays the radix-2 op-count premium.
    EXPECT_LT(imagine.cycles, rawBound.cycles);
    EXPECT_LT(rawBound.cycles, viram.cycles);
}

TEST(PerfModel, BeamSteeringBindingResources)
{
    kernels::BeamConfig cfg;
    // Section 4.4: Imagine's beam steering is memory-bound; VIRAM
    // and Raw are compute-bound.
    EXPECT_NE(beamSteeringBound(MachineId::Imagine, cfg)
                  .resource.find("bandwidth"),
              std::string::npos);
    EXPECT_NE(beamSteeringBound(MachineId::Viram, cfg)
                  .resource.find("VAU"),
              std::string::npos);
    EXPECT_NE(beamSteeringBound(MachineId::Raw, cfg)
                  .resource.find("issue"),
              std::string::npos);
}

TEST(ReportTables, Table1And2Render)
{
    std::ostringstream os;
    buildTable1().render(os);
    buildTable2().render(os);
    const std::string s = os.str();
    EXPECT_NE(s.find("VIRAM"), std::string::npos);
    EXPECT_NE(s.find("SRF"), std::string::npos);
    EXPECT_NE(s.find("Peak GFLOPS"), std::string::npos);
    EXPECT_NE(s.find("14.40"), std::string::npos);
}

// ---------------------------------------------------------------
// Reduced-size end-to-end study (fast), checking run mechanics.
// ---------------------------------------------------------------

StudyConfig
smallConfig()
{
    StudyConfig cfg;
    cfg.matrixSize = 128;
    cfg.cslc.subBands = 8;
    cfg.cslc.samples = (cfg.cslc.subBands - 1) * cfg.cslc.subBandStride
                       + cfg.cslc.subBandLen;
    cfg.beam.elements = 256;
    cfg.beam.dwells = 2;
    cfg.jammerBins = {64, 200};
    return cfg;
}

TEST(RunnerSmall, EveryCellValidates)
{
    ParallelRunner runner(smallConfig(), 1, nullptr,
                          ParallelRunner::noCache());
    for (MachineId machine : allMachines()) {
        for (KernelId kernel : allKernels()) {
            auto r = runner.run(machine, kernel);
            EXPECT_TRUE(r.validated)
                << machineName(machine) << " / " << kernelName(kernel);
            EXPECT_GT(r.cycles, 0u);
        }
    }
}

TEST(RunnerSmall, RawCslcReportsBothNumbers)
{
    ParallelRunner runner(smallConfig(), 1, nullptr,
                          ParallelRunner::noCache());
    auto r = runner.run(MachineId::Raw, KernelId::Cslc);
    ASSERT_TRUE(r.measuredUnbalanced.has_value());
    // 8 sub-bands on 16 tiles: extrapolation halves the time.
    EXPECT_LT(r.cycles, *r.measuredUnbalanced);
}

TEST(RunnerSmall, MillisecondsUseMachineClock)
{
    ParallelRunner runner(smallConfig(), 1, nullptr,
                          ParallelRunner::noCache());
    auto r = runner.run(MachineId::Viram, KernelId::BeamSteering);
    EXPECT_NEAR(r.milliseconds(),
                static_cast<double>(r.cycles) / (200.0 * 1000.0),
                1e-9);
}

// ---------------------------------------------------------------
// Full-size study: the paper's Table 3 shape. Shared fixture so the
// 15 simulations run once.
// ---------------------------------------------------------------

class PaperShape : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        runner = new ParallelRunner(StudyConfig{}, 1, nullptr,
                                    ParallelRunner::noCache());
        results = new std::vector<RunResult>(runner->runAll());
    }

    static void
    TearDownTestSuite()
    {
        delete results;
        delete runner;
        results = nullptr;
        runner = nullptr;
    }

    static Cycles
    cycles(MachineId machine, KernelId kernel)
    {
        return findResult(*results, machine, kernel).cycles;
    }

    static ParallelRunner *runner;
    static std::vector<RunResult> *results;
};

ParallelRunner *PaperShape::runner = nullptr;
std::vector<RunResult> *PaperShape::results = nullptr;

TEST_F(PaperShape, AllFifteenCellsValidate)
{
    ASSERT_EQ(results->size(), 15u);
    for (const auto &r : *results)
        EXPECT_TRUE(r.validated)
            << machineName(r.machine) << " / " << kernelName(r.kernel);
}

TEST_F(PaperShape, MatchesPerfbenchExpectedFieldForField)
{
    // The benchmark's golden cells compare cycles and breakdowns
    // only; this pins every field, the explanatory notes and their
    // order included.
    const std::string path =
        std::string(TRIARCH_SOURCE_DIR) + "/perfbench/expected_table3.json";
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in) << "cannot read " << path;
    std::ostringstream text;
    text << in.rdbuf();
    std::string error;
    const auto doc = json::parse(text.str(), &error);
    ASSERT_TRUE(doc) << error;
    const json::Value *cells = doc->field("cells");
    ASSERT_TRUE(cells && cells->isArray());
    ASSERT_EQ(cells->items.size(), results->size());
    for (std::size_t i = 0; i < results->size(); ++i) {
        RunResult expect;
        ASSERT_TRUE(parseRunResult(cells->items[i], &expect, &error))
            << error;
        const RunResult &got = (*results)[i];
        EXPECT_TRUE(got == expect) << machineName(got.machine) << " / "
                                   << kernelName(got.kernel);
    }
}

TEST_F(PaperShape, CornerTurnRankingMatchesTable3)
{
    // Paper: Raw 146 < VIRAM 554 < Imagine 1,439 < Altivec 29,288
    //        < PPC 34,250 (10^3 cycles).
    EXPECT_LT(cycles(MachineId::Raw, KernelId::CornerTurn),
              cycles(MachineId::Viram, KernelId::CornerTurn));
    EXPECT_LT(cycles(MachineId::Viram, KernelId::CornerTurn),
              cycles(MachineId::Imagine, KernelId::CornerTurn));
    EXPECT_LT(cycles(MachineId::Imagine, KernelId::CornerTurn),
              cycles(MachineId::PpcAltivec, KernelId::CornerTurn));
    EXPECT_LT(cycles(MachineId::PpcAltivec, KernelId::CornerTurn),
              cycles(MachineId::PpcScalar, KernelId::CornerTurn));
}

TEST_F(PaperShape, CslcRankingMatchesTable3)
{
    // Paper: Imagine 196 < Raw 357 < VIRAM 424 << Altivec 4,931
    //        << PPC 29,013.
    EXPECT_LT(cycles(MachineId::Imagine, KernelId::Cslc),
              cycles(MachineId::Raw, KernelId::Cslc));
    EXPECT_LT(cycles(MachineId::Raw, KernelId::Cslc),
              cycles(MachineId::Viram, KernelId::Cslc));
    EXPECT_LT(cycles(MachineId::Viram, KernelId::Cslc),
              cycles(MachineId::PpcAltivec, KernelId::Cslc));
    EXPECT_LT(cycles(MachineId::PpcAltivec, KernelId::Cslc),
              cycles(MachineId::PpcScalar, KernelId::Cslc));
}

TEST_F(PaperShape, BeamSteeringRankingMatchesTable3)
{
    // Paper: Raw 19 < VIRAM 35 < Imagine 87 << Altivec 364 < PPC 730.
    EXPECT_LT(cycles(MachineId::Raw, KernelId::BeamSteering),
              cycles(MachineId::Viram, KernelId::BeamSteering));
    EXPECT_LT(cycles(MachineId::Viram, KernelId::BeamSteering),
              cycles(MachineId::Imagine, KernelId::BeamSteering));
    EXPECT_LT(cycles(MachineId::Imagine, KernelId::BeamSteering),
              cycles(MachineId::PpcAltivec, KernelId::BeamSteering));
    EXPECT_LT(cycles(MachineId::PpcAltivec, KernelId::BeamSteering),
              cycles(MachineId::PpcScalar, KernelId::BeamSteering));
}

TEST_F(PaperShape, ResearchChipsBeatAltivecTenfoldSomewhere)
{
    // Section 4.6: VIRAM outperformed the G4 AltiVec by more than
    // 10x on all three kernels.
    for (KernelId kernel : allKernels()) {
        EXPECT_GT(speedupVsAltivec(*results, MachineId::Viram, kernel,
                                   false),
                  8.0)
            << kernelName(kernel);
    }
}

TEST_F(PaperShape, MeasuredCyclesRespectModelBounds)
{
    // Property: no simulator beats the Section 2.5 lower bound.
    const auto &cfg = runner->config();
    for (MachineId machine : researchMachines()) {
        EXPECT_GE(cycles(machine, KernelId::CornerTurn),
                  cornerTurnBound(machine, cfg.matrixSize).cycles)
            << machineName(machine);
        EXPECT_GE(cycles(machine, KernelId::Cslc),
                  cslcBound(machine, cfg.cslc).cycles)
            << machineName(machine);
        EXPECT_GE(cycles(machine, KernelId::BeamSteering),
                  beamSteeringBound(machine, cfg.beam).cycles)
            << machineName(machine);
    }
}

TEST_F(PaperShape, Table3WithinFactorTwoOfPaper)
{
    // Absolute cycle counts (10^3) from the paper's Table 3; the
    // substitution simulators should land within a factor of ~2.
    struct Expect
    {
        MachineId machine;
        KernelId kernel;
        double paperKcycles;
    };
    const Expect expectations[] = {
        {MachineId::PpcScalar, KernelId::CornerTurn, 34250},
        {MachineId::PpcAltivec, KernelId::CornerTurn, 29288},
        {MachineId::Viram, KernelId::CornerTurn, 554},
        {MachineId::Imagine, KernelId::CornerTurn, 1439},
        {MachineId::Raw, KernelId::CornerTurn, 146},
        {MachineId::PpcScalar, KernelId::Cslc, 29013},
        {MachineId::PpcAltivec, KernelId::Cslc, 4931},
        {MachineId::Viram, KernelId::Cslc, 424},
        {MachineId::Imagine, KernelId::Cslc, 196},
        {MachineId::Raw, KernelId::Cslc, 357},
        {MachineId::PpcScalar, KernelId::BeamSteering, 730},
        {MachineId::PpcAltivec, KernelId::BeamSteering, 364},
        {MachineId::Viram, KernelId::BeamSteering, 35},
        {MachineId::Imagine, KernelId::BeamSteering, 87},
        {MachineId::Raw, KernelId::BeamSteering, 19},
    };
    for (const auto &e : expectations) {
        const double measured =
            static_cast<double>(cycles(e.machine, e.kernel)) / 1000.0;
        EXPECT_GT(measured, e.paperKcycles / 2.0)
            << machineName(e.machine) << " / " << kernelName(e.kernel);
        EXPECT_LT(measured, e.paperKcycles * 2.0)
            << machineName(e.machine) << " / " << kernelName(e.kernel);
    }
}

TEST_F(PaperShape, TablesAndFiguresRender)
{
    std::ostringstream os;
    buildTable3(*results).render(os);
    buildTable4(runner->config(), *results).render(os);
    buildFigure8(*results).render(os);
    buildFigure9(*results).render(os);
    const std::string s = os.str();
    EXPECT_NE(s.find("Table 3"), std::string::npos);
    EXPECT_NE(s.find("Binding resource"), std::string::npos);
    EXPECT_NE(s.find("Figure 8"), std::string::npos);
    EXPECT_NE(s.find("execution time"), std::string::npos);
}

TEST_F(PaperShape, Figure9ClockAdjustmentShrinksResearchSpeedups)
{
    // The research chips run at 200-300 MHz vs the G4's 1 GHz, so
    // execution-time speedups are smaller than cycle speedups.
    for (MachineId machine : researchMachines()) {
        for (KernelId kernel : allKernels()) {
            EXPECT_LT(speedupVsAltivec(*results, machine, kernel,
                                       true),
                      speedupVsAltivec(*results, machine, kernel,
                                       false));
        }
    }
}

TEST_F(PaperShape, ExplanatoryNotesMatchPaperClaims)
{
    // Note keys carry the owning stat-group prefix (machine token).
    bool sawUtilization = false, sawIdle = false, sawMemory = false;

    // Imagine CSLC utilization ~25% (Section 4.3).
    const auto &imagineCslc =
        findResult(*results, MachineId::Imagine, KernelId::Cslc);
    for (const auto &[key, value] : imagineCslc.notes) {
        if (key == "imagine.alu_utilization") {
            sawUtilization = true;
            EXPECT_GT(value, 0.10);
            EXPECT_LT(value, 0.45);
        }
    }
    // Raw CSLC idle fraction ~8% (Section 4.3).
    const auto &rawCslc =
        findResult(*results, MachineId::Raw, KernelId::Cslc);
    for (const auto &[key, value] : rawCslc.notes) {
        if (key == "raw.idle_fraction") {
            sawIdle = true;
            EXPECT_GT(value, 0.03);
            EXPECT_LT(value, 0.20);
        }
        if (key == "raw.cache_stall_fraction") {
            EXPECT_LT(value, 0.12);
        }
    }
    // Imagine corner turn is memory-dominated (87% in the paper).
    const auto &imagineCt =
        findResult(*results, MachineId::Imagine, KernelId::CornerTurn);
    for (const auto &[key, value] : imagineCt.notes) {
        if (key == "imagine.memory_fraction") {
            sawMemory = true;
            EXPECT_GT(value, 0.6);
        }
    }

    EXPECT_TRUE(sawUtilization);
    EXPECT_TRUE(sawIdle);
    EXPECT_TRUE(sawMemory);
}

} // namespace
} // namespace triarch::study

// Re-opened: independent cross-validation pins (Section 2 quotes).
#include "imagine/machine.hh"

namespace triarch::study
{
namespace
{

TEST(PriorClaims, ImagineMediaKernelUtilizationInPublishedBand)
{
    // Section 2.2: "ALU utilization between 84% and 95% is reported
    // for streaming media applications."
    imagine::ImagineMachine m;
    const Addr src = m.allocMem(1 << 20, "pixels");
    constexpr unsigned strips = 10;
    constexpr unsigned stripWords = 1632;
    imagine::StreamRef in[strips], out[strips];
    for (unsigned s = 0; s < strips; ++s) {
        in[s] = m.allocStream(stripWords, "in");
        out[s] = m.allocStream(stripWords, "out");
        m.loadStream(in[s],
                     imagine::MemPattern::sequential(
                         src + s * stripWords * 4, stripWords));
    }
    m.resetTiming();
    for (unsigned s = 0; s < strips; ++s) {
        imagine::KernelDesc media;
        media.iterations = stripWords / 8;
        media.adds = 6;
        media.mults = 4;
        media.srfWords = 2;
        media.pipelineDepth = 24;
        media.usefulFlops =
            static_cast<std::uint64_t>(media.iterations) * 8 * 10;
        m.runKernel(media, {&in[s]}, {&out[s]}, [] {});
    }
    const double util =
        static_cast<double>(m.usefulFlops())
        / (static_cast<double>(m.completionTime()) * 8 * 5);
    EXPECT_GT(util, 0.84);
    EXPECT_LT(util, 0.95);
}

} // namespace
} // namespace triarch::study
