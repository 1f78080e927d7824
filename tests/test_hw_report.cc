/**
 * @file
 * Tests for the hardware-counter observability layer (DESIGN D14):
 * the EpochSampler's shape and order-independence guarantees, the
 * triarch.hw.v1 round trip, the validating parser's rejection of
 * malformed or inconsistent documents, and the end-to-end
 * determinism contracts — the rendered report is bit-identical at
 * any worker-thread count, under the Span and Reference memory
 * models (including the fuzz boundary configs), and under the Raw
 * event and reference steppers.
 */

#include <gtest/gtest.h>

#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "mem/mem_mode.hh"
#include "raw/config.hh"
#include "sim/hw_report.hh"
#include "study/config_check.hh"
#include "study/fuzz.hh"
#include "study/parallel.hh"

// --- EpochSampler ----------------------------------------------------

namespace triarch::hw
{
namespace
{

std::uint64_t
channelSum(const HwTimeline &t, std::size_t channel)
{
    const auto &counts = t.channels[channel].counts;
    return std::accumulate(counts.begin(), counts.end(),
                           std::uint64_t{0});
}

TEST(EpochSamplerTest, FinalizeShapesTheTimeline)
{
    EpochSampler s({"busy"});
    for (Cycles c = 0; c < 1000; ++c)
        s.addAt(0, c);
    const HwTimeline t = s.finalize(1000);

    EXPECT_EQ(t.cycles, 1000u);
    // Smallest power of two with ceil(1000 / len) <= 64.
    EXPECT_EQ(t.epochCycles, 16u);
    ASSERT_EQ(t.channels.size(), 1u);
    EXPECT_EQ(t.channels[0].name, "busy");
    EXPECT_EQ(t.epochs(), 63u);
    EXPECT_EQ(channelSum(t, 0), 1000u) << "counts must be conserved";
    // Every full epoch saw exactly its length in events.
    for (std::size_t e = 0; e + 1 < t.epochs(); ++e)
        EXPECT_EQ(t.channels[0].counts[e], 16u) << "epoch " << e;
    EXPECT_EQ(t.channels[0].counts.back(), 1000u % 16);
}

TEST(EpochSamplerTest, GrowMergesSlotsPairwise)
{
    EpochSampler s({"busy"});
    for (Cycles c = 0; c < 64; ++c)
        s.addAt(0, c);
    s.addAt(0, 64);                 // forces one doubling
    const HwTimeline t = s.finalize(65);

    EXPECT_EQ(t.epochCycles, 2u);
    EXPECT_EQ(t.epochs(), 33u);
    for (std::size_t e = 0; e < 32; ++e)
        EXPECT_EQ(t.channels[0].counts[e], 2u) << "epoch " << e;
    EXPECT_EQ(t.channels[0].counts[32], 1u);
}

TEST(EpochSamplerTest, ResultIsOrderIndependent)
{
    // Same multiset of additions, wildly different orders — with
    // growth happening at different points in each schedule. This is
    // the property the Raw co-batch stepper depends on.
    EpochSampler forward({"a", "b"});
    forward.addRange(0, 0, 100);
    forward.addAt(1, 900, 7);
    forward.addRange(0, 500, 700);
    forward.addAt(0, 999);

    EpochSampler shuffled({"a", "b"});
    shuffled.addAt(0, 999);         // grows the epoch length first
    for (Cycles c = 500; c < 700; ++c)
        shuffled.addAt(0, c);       // per-cycle instead of one range
    shuffled.addAt(1, 900, 3);
    shuffled.addAt(1, 900, 4);      // split count
    shuffled.addRange(0, 0, 100);

    EXPECT_EQ(forward.finalize(1000), shuffled.finalize(1000));
}

TEST(EpochSamplerTest, AddRangeSplitsExactlyAcrossEpochs)
{
    EpochSampler range({"a"});
    EpochSampler loop({"a"});
    range.addAt(0, 1023, 0);        // pin both to epoch length 16
    loop.addAt(0, 1023, 0);
    range.addRange(0, 10, 250);
    for (Cycles c = 10; c < 250; ++c)
        loop.addAt(0, c);
    const HwTimeline rt = range.finalize(1024);
    EXPECT_EQ(rt, loop.finalize(1024));
    EXPECT_EQ(channelSum(rt, 0), 240u);
}

TEST(EpochSamplerTest, EventsPastTotalFoldIntoTheLastEpoch)
{
    // Fractional-clock machines (PPC) can round one sample past the
    // llround()ed total; the count lands in the final epoch instead
    // of vanishing.
    EpochSampler s({"a"});
    s.addAt(0, 5);
    s.addAt(0, 1000);               // shift 4; slot 62
    const HwTimeline t = s.finalize(990);
    EXPECT_EQ(t.epochs(), 62u);     // ceil(990 / 16)
    EXPECT_EQ(channelSum(t, 0), 2u);
    EXPECT_EQ(t.channels[0].counts.back(), 1u);
}

TEST(EpochSamplerTest, ResetAndZeroTotal)
{
    EpochSampler s({"a", "b"});
    s.addRange(0, 0, 500);
    s.reset();
    const HwTimeline t = s.finalize(0);
    EXPECT_EQ(t.cycles, 0u);
    ASSERT_EQ(t.channels.size(), 2u);
    EXPECT_EQ(t.epochs(), 0u);
    EXPECT_TRUE(t.channels[0].counts.empty());
    EXPECT_EQ(t.channels[1].name, "b");
}

// --- Round trip + malformed rejection --------------------------------

/** A fully consistent one-cell report. */
HwReport
makeValidReport()
{
    HwCell cell;
    cell.machine = "viram";
    cell.kernel = "ct";
    cell.cycles = 100;
    cell.breakdown.cycles = {10, 5, 80, 3, 2};  // DramDma dominates
    cell.breakdown.total = 100;
    cell.metrics.push_back({"row_miss_rate", 0.51, true});
    cell.metrics.push_back({"mem_words_per_cycle", 4.25, false});
    cell.verdict = {"dram", stats::CycleCategory::DramDma,
                    "bound by DRAM row misses, row miss rate 0.51"};
    cell.timeline.cycles = 100;
    cell.timeline.epochCycles = 2;
    cell.timeline.channels.push_back(
        {"vmu_busy", std::vector<std::uint64_t>(50, 1)});

    HwReport report;
    report.configHash = "deadbeef";
    report.cells.push_back(std::move(cell));
    return report;
}

TEST(HwReportRoundTrip, RenderingPreservesEverything)
{
    const HwReport report = makeValidReport();

    std::string error;
    const auto pretty =
        parseHwReport(renderHwReport(report), &error);
    ASSERT_TRUE(pretty) << error;
    EXPECT_EQ(*pretty, report);
}

TEST(HwReportRoundTrip, EmptyReportAndOmittedConfigHash)
{
    HwReport report;
    std::string error;
    const std::string text = renderHwReport(report);
    EXPECT_EQ(text.find("config_hash"), std::string::npos);
    const auto parsed = parseHwReport(text, &error);
    ASSERT_TRUE(parsed) << error;
    EXPECT_EQ(*parsed, report);
}

/** parseHwReport must fail and mention @p needle. */
void
expectRejected(const HwReport &report, const std::string &needle)
{
    std::string error;
    const auto parsed = parseHwReport(renderHwReport(report), &error);
    EXPECT_FALSE(parsed) << "accepted a report that should fail ("
                         << needle << ")";
    EXPECT_NE(error.find(needle), std::string::npos)
        << "error was: " << error;
}

TEST(HwReportValidation, RejectsEverySemanticViolation)
{
    {
        // Rate metric outside [0, 1].
        HwReport bad = makeValidReport();
        bad.cells[0].metrics[0].value = 1.5;
        expectRejected(bad, "outside [0, 1]");
    }
    {
        // Non-rate metrics may exceed 1 — control: still parses.
        HwReport ok = makeValidReport();
        ok.cells[0].metrics[1].value = 123.0;
        std::string error;
        EXPECT_TRUE(parseHwReport(renderHwReport(ok), &error))
            << error;
    }
    {
        // Breakdown no longer partitions the cycles.
        HwReport bad = makeValidReport();
        bad.cells[0].breakdown.cycles[0] += 1;
        expectRejected(bad, "sums to");
    }
    {
        // Verdict category contradicts the dominant category.
        HwReport bad = makeValidReport();
        bad.cells[0].verdict.category = stats::CycleCategory::Compute;
        bad.cells[0].verdict.component = "alu";
        expectRejected(bad, "contradicts");
    }
    {
        // Component belongs to a different category.
        HwReport bad = makeValidReport();
        bad.cells[0].verdict.component = "mesh";
        expectRejected(bad, "belongs to category");
    }
    {
        // Component nobody has heard of.
        HwReport bad = makeValidReport();
        bad.cells[0].verdict.component = "flux_capacitor";
        expectRejected(bad, "unknown verdict component");
    }
    {
        // Epoch length must be a power of two.
        HwReport bad = makeValidReport();
        bad.cells[0].timeline.epochCycles = 3;
        expectRejected(bad, "power of two");
    }
    {
        // Channel length must be ceil(cycles / epochCycles).
        HwReport bad = makeValidReport();
        bad.cells[0].timeline.channels[0].counts.pop_back();
        expectRejected(bad, "expected");
    }
    {
        // Epoch length too small for the run: too many epochs.
        HwReport bad = makeValidReport();
        bad.cells[0].timeline.epochCycles = 1;
        bad.cells[0].timeline.channels[0].counts.resize(100, 1);
        expectRejected(bad, "max");
    }
    {
        // Two cells with the same (machine, kernel).
        HwReport bad = makeValidReport();
        bad.cells.push_back(bad.cells[0]);
        expectRejected(bad, "duplicate cell");
    }
    {
        // Wrong schema tag.
        std::string text = renderHwReport(makeValidReport());
        const auto at = text.find("triarch.hw.v1");
        ASSERT_NE(at, std::string::npos);
        text.replace(at, 13, "triarch.hw.v9");
        std::string error;
        EXPECT_FALSE(parseHwReport(text, &error));
        EXPECT_NE(error.find("unsupported schema"), std::string::npos)
            << error;
    }
    {
        // Wrong epoch_slots.
        std::string text = renderHwReport(makeValidReport());
        const auto at = text.find("\"epoch_slots\": 64");
        ASSERT_NE(at, std::string::npos);
        text.replace(at, 17, "\"epoch_slots\": 32");
        std::string error;
        EXPECT_FALSE(parseHwReport(text, &error));
        EXPECT_NE(error.find("epoch_slots"), std::string::npos)
            << error;
    }
    {
        // Not JSON at all.
        std::string error;
        EXPECT_FALSE(parseHwReport("not json", &error));
        EXPECT_FALSE(error.empty());
    }
}

} // namespace
} // namespace triarch::hw

// --- End-to-end determinism ------------------------------------------

namespace triarch::study
{
namespace
{

/** The reduced workload from test_study.cc: fast but exercises all
 *  fifteen cells end to end. */
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

/** RAII override of the process-wide default Raw stepper. */
class RawStepperOverride
{
  public:
    explicit RawStepperOverride(raw::RawStepper s)
        : saved(raw::defaultRawStepper())
    {
        raw::setDefaultRawStepper(s);
    }
    ~RawStepperOverride() { raw::setDefaultRawStepper(saved); }

  private:
    raw::RawStepper saved;
};

/** Run @p cells fresh (no cache) and return the rendered hw doc. */
std::string
hwDoc(const StudyConfig &cfg, const std::vector<Cell> &cells,
      unsigned threads)
{
    hw::HwRegistry::global().clear();
    ParallelRunner runner(cfg, threads, nullptr,
                          ParallelRunner::noCache());
    runner.runCells(cells);
    return hw::renderHwReport(hw::HwRegistry::global().report());
}

/** Every cell whose machine resolves cfg.memModel (D13). */
std::vector<Cell>
spanCells()
{
    std::vector<Cell> cells;
    for (const MachineId m :
         {MachineId::PpcScalar, MachineId::PpcAltivec,
          MachineId::Viram, MachineId::Imagine}) {
        for (const KernelId k :
             {KernelId::CornerTurn, KernelId::Cslc,
              KernelId::BeamSteering}) {
            cells.push_back({m, k});
        }
    }
    return cells;
}

TEST(HwReportDeterminism, BitIdenticalAcrossThreadCounts)
{
    const StudyConfig cfg = smallConfig();
    const std::vector<Cell> cells = allCells();
    const std::string at1 = hwDoc(cfg, cells, 1);
    const std::string at2 = hwDoc(cfg, cells, 2);
    const std::string at8 = hwDoc(cfg, cells, 8);
    EXPECT_EQ(at1, at2);
    EXPECT_EQ(at1, at8);

    // The document the full grid produces is valid by the strict
    // parser: every rate in range, every verdict consistent with its
    // D9 partition, every timeline exactly shaped.
    std::string error;
    const auto parsed = hw::parseHwReport(at1, &error);
    ASSERT_TRUE(parsed) << error;
    EXPECT_EQ(parsed->cells.size(), 15u);
    for (const hw::HwCell &cell : parsed->cells) {
        EXPECT_FALSE(cell.verdict.detail.empty())
            << cell.machine << "/" << cell.kernel;
        EXPECT_FALSE(cell.metrics.empty())
            << cell.machine << "/" << cell.kernel;
        EXPECT_GT(cell.timeline.epochs(), 0u)
            << cell.machine << "/" << cell.kernel;
    }
    hw::HwRegistry::global().clear();
}

TEST(HwReportDeterminism, SpanAndReferenceModelsAgree)
{
    // The D13 contract extended to the hardware counters: both
    // memory models must produce byte-identical hw documents, on the
    // default-shaped small config and across the fuzz sweep's
    // hand-written boundary configs.
    const std::vector<Cell> cells = spanCells();
    std::vector<StudyConfig> configs{smallConfig()};
    FuzzOptions opts;
    opts.randomConfigs = 0;
    for (const StudyConfig &cfg : enumerateFuzzConfigs(opts)) {
        if (validateConfig(cfg))
            continue;           // invalid-on-purpose boundary config
        configs.push_back(cfg);
        if (configs.size() == 4)
            break;              // keep the suite seconds-fast
    }
    ASSERT_GE(configs.size(), 3u);

    for (const StudyConfig &cfg : configs) {
        SCOPED_TRACE(describeConfig(cfg));
        std::string ref;
        {
            MemModelOverride guard(mem::MemModel::Reference);
            ref = hwDoc(cfg, cells, 1);
        }
        MemModelOverride guard(mem::MemModel::Span);
        for (const unsigned threads : {1u, 2u}) {
            EXPECT_EQ(hwDoc(cfg, cells, threads), ref)
                << threads << " threads";
        }
    }
    hw::HwRegistry::global().clear();
}

TEST(HwReportDeterminism, RawSteppersAgree)
{
    // The D12 contract extended to the hardware counters: the Raw
    // event stepper credits stall tallies in bulk ranges, the
    // reference stepper one cycle at a time — the epoch timelines
    // must still match bit for bit.
    const StudyConfig cfg = smallConfig();
    const std::vector<Cell> cells = {
        {MachineId::Raw, KernelId::CornerTurn},
        {MachineId::Raw, KernelId::Cslc},
        {MachineId::Raw, KernelId::BeamSteering}};
    std::string event, reference;
    {
        RawStepperOverride guard(raw::RawStepper::Event);
        event = hwDoc(cfg, cells, 1);
    }
    {
        RawStepperOverride guard(raw::RawStepper::Reference);
        reference = hwDoc(cfg, cells, 1);
    }
    EXPECT_EQ(event, reference);
    hw::HwRegistry::global().clear();
}

} // namespace
} // namespace triarch::study
