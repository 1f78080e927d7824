/**
 * @file
 * Tests for the cycle-accounting profiler and the perf-regression
 * gate built on it: the exact-partition invariant of CycleAccount /
 * CycleTimeline, the per-cell breakdowns of every machine x kernel
 * mapping (categories sum exactly to the cell's cycles), their
 * bit-identical determinism across thread counts, and the
 * triarch.results.v2 document round-trip, its parser's rejections,
 * the committed baselines, and bench-diff pass/fail decisions on
 * perturbed baselines.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "raw/assembler.hh"
#include "raw/machine.hh"
#include "sim/cycle_account.hh"
#include "study/bench_report.hh"
#include "study/parallel.hh"
#include "study/result_sink.hh"
#include "study/study_json.hh"

namespace triarch::study
{
namespace
{

using stats::CycleAccount;
using stats::CycleBreakdown;
using stats::CycleCategory;
using stats::CycleTimeline;

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

// ---------------------------------------------------------------
// CycleAccount: largest-remainder integerization and the
// over/under-attribution rules.
// ---------------------------------------------------------------

TEST(CycleAccount, ExactChargesPassThrough)
{
    CycleAccount account;
    account.charge(CycleCategory::Compute, 60.0);
    account.charge(CycleCategory::DramDma, 40.0);
    const CycleBreakdown b =
        account.finalize(100, CycleCategory::NetworkSync);
    EXPECT_EQ(b[CycleCategory::Compute], 60u);
    EXPECT_EQ(b[CycleCategory::DramDma], 40u);
    EXPECT_EQ(b[CycleCategory::NetworkSync], 0u);
    EXPECT_EQ(b.categorySum(), b.total);
    EXPECT_EQ(b.total, 100u);
}

TEST(CycleAccount, UnderchargeGoesToResidual)
{
    CycleAccount account;
    account.charge(CycleCategory::CacheStall, 30.0);
    const CycleBreakdown b =
        account.finalize(100, CycleCategory::Compute);
    EXPECT_EQ(b[CycleCategory::CacheStall], 30u);
    EXPECT_EQ(b[CycleCategory::Compute], 70u);
    EXPECT_EQ(b.categorySum(), 100u);
}

TEST(CycleAccount, FractionalChargesIntegerizeByLargestRemainder)
{
    // 33.5 + 33.4 + 33.1 = 100: floors (33,33,33) leave one cycle,
    // which must go to the largest fractional part (Compute, .5).
    CycleAccount account;
    account.charge(CycleCategory::Compute, 33.5);
    account.charge(CycleCategory::CacheStall, 33.4);
    account.charge(CycleCategory::DramDma, 33.1);
    const CycleBreakdown b =
        account.finalize(100, CycleCategory::NetworkSync);
    EXPECT_EQ(b[CycleCategory::Compute], 34u);
    EXPECT_EQ(b[CycleCategory::CacheStall], 33u);
    EXPECT_EQ(b[CycleCategory::DramDma], 33u);
    EXPECT_EQ(b.categorySum(), 100u);
}

TEST(CycleAccountDeath, OverchargePanics)
{
    CycleAccount account;
    account.charge(CycleCategory::Compute, 150.0);
    EXPECT_DEATH(account.finalize(100, CycleCategory::Compute),
                 "over-attributed");
}

TEST(CycleAccount, FinalizeScaledPreservesProportions)
{
    // The Raw CSLC path: measured at 200 cycles, reported at 100.
    CycleAccount account;
    account.charge(CycleCategory::Compute, 150.0);
    account.charge(CycleCategory::NetworkSync, 50.0);
    const CycleBreakdown b = account.finalizeScaled(100);
    EXPECT_EQ(b.total, 100u);
    EXPECT_EQ(b.categorySum(), 100u);
    EXPECT_EQ(b[CycleCategory::Compute], 75u);
    EXPECT_EQ(b[CycleCategory::NetworkSync], 25u);
}

// ---------------------------------------------------------------
// CycleTimeline: priority resolution of overlapped intervals.
// ---------------------------------------------------------------

TEST(CycleTimeline, OverlapResolvesToHighestPriority)
{
    // Compute [10, 20) overlaps DramDma [15, 30): the overlapped
    // cycles count as compute (declaration order = priority), the
    // uncovered head/tail go to the gap category.
    CycleTimeline timeline;
    timeline.add(CycleCategory::DramDma, 15, 30);
    timeline.add(CycleCategory::Compute, 10, 20);
    const CycleBreakdown b =
        timeline.resolve(40, CycleCategory::NetworkSync);
    EXPECT_EQ(b[CycleCategory::Compute], 10u);
    EXPECT_EQ(b[CycleCategory::DramDma], 10u);
    EXPECT_EQ(b[CycleCategory::NetworkSync], 20u);
    EXPECT_EQ(b.categorySum(), 40u);
}

TEST(CycleTimeline, IntervalsPastTotalAreClipped)
{
    CycleTimeline timeline;
    timeline.add(CycleCategory::Compute, 5, 100);
    const CycleBreakdown b =
        timeline.resolve(10, CycleCategory::NetworkSync);
    EXPECT_EQ(b[CycleCategory::Compute], 5u);
    EXPECT_EQ(b[CycleCategory::NetworkSync], 5u);
    EXPECT_EQ(b.categorySum(), 10u);
}

TEST(CycleTimeline, EmptyTimelineIsAllGap)
{
    CycleTimeline timeline;
    const CycleBreakdown b =
        timeline.resolve(7, CycleCategory::SetupReadback);
    EXPECT_EQ(b[CycleCategory::SetupReadback], 7u);
    EXPECT_EQ(b.categorySum(), 7u);
}

// ---------------------------------------------------------------
// The profiler invariant across every machine x kernel cell.
// ---------------------------------------------------------------

TEST(BreakdownInvariant, CategoriesSumToTotalForEveryCell)
{
    ParallelRunner runner(smallConfig(), 1, nullptr,
                          ParallelRunner::noCache());
    const std::vector<RunResult> results = runner.runAll();
    ASSERT_EQ(results.size(), 15u);
    for (const RunResult &r : results) {
        SCOPED_TRACE(machineName(r.machine) + " / "
                     + kernelName(r.kernel));
        EXPECT_EQ(r.breakdown.total, r.cycles);
        EXPECT_EQ(r.breakdown.categorySum(), r.cycles);
        // A cell that runs at all must attribute its cycles to
        // something.
        EXPECT_GT(r.cycles, 0u);
    }
}

TEST(BreakdownInvariant, StreamModeHasNoCacheStalls)
{
    // Imagine has no caches: all memory time is stream transfers,
    // so cache_stall is structurally zero (the paper's stream-mode
    // argument, Section 4.1). VIRAM's on-chip DRAM likewise.
    ParallelRunner runner(smallConfig(), 1, nullptr,
                          ParallelRunner::noCache());
    for (KernelId kernel : allKernels()) {
        const RunResult imagine =
            runner.run(MachineId::Imagine, kernel);
        EXPECT_EQ(imagine.breakdown[CycleCategory::CacheStall], 0u)
            << kernelName(kernel);
        const RunResult viram = runner.run(MachineId::Viram, kernel);
        EXPECT_EQ(viram.breakdown[CycleCategory::CacheStall], 0u)
            << kernelName(kernel);
    }
}

TEST(BreakdownInvariant, BitIdenticalAcrossThreadCounts)
{
    const StudyConfig cfg = smallConfig();
    ParallelRunner serial(cfg, 1, nullptr,
                          ParallelRunner::noCache());
    const std::vector<RunResult> expect = serial.runAll();

    for (unsigned threads : {1u, 2u, 8u}) {
        ParallelRunner par(cfg, threads, nullptr,
                           ParallelRunner::noCache());
        const std::vector<RunResult> got = par.runAll();
        ASSERT_EQ(got.size(), expect.size());
        for (std::size_t i = 0; i < expect.size(); ++i) {
            EXPECT_EQ(got[i].breakdown, expect[i].breakdown)
                << threads << " threads, cell " << i;
        }
    }
}

// ---------------------------------------------------------------
// The triarch.results.v2 document: write, parse round-trip.
// ---------------------------------------------------------------

/** The small config's 15 cells, computed once (the suite's cells
 *  are deterministic, so sharing is safe). */
const std::vector<RunResult> &
smallResults()
{
    static const std::vector<RunResult> results = [] {
        ParallelRunner runner(smallConfig(), 1, nullptr,
                              ParallelRunner::noCache());
        return runner.runAll();
    }();
    return results;
}

/** The small config's results written and read back by a sink. */
ResultsDocument
smallReport()
{
    ResultSink sink(smallConfig());
    sink.add(smallResults());
    return sink.document();
}

/** Render @p results (and an optional host block) as a document. */
std::string
writeDocument(const std::vector<RunResult> &results,
              const std::optional<HostSection> &host = std::nullopt)
{
    ResultSink sink(smallConfig());
    sink.add(results);
    if (host)
        sink.host(*host);
    std::ostringstream os;
    sink.writeJson(os);
    return os.str();
}

/** A v2 document around a results array and extra top-level text. */
std::string
documentWith(const std::string &results, const std::string &extra = "")
{
    return R"({"schema": "triarch.results.v2",
               "config": {"seed": 1, "hash": "x"},
               "metadata": {}, "results": [)"
           + results + "]" + extra + "}";
}

/** One well-formed PPC corner-turn cell. */
const char *const kCell =
    R"({"machine": "ppc", "kernel": "ct", "cycles": 100,
        "validated": true,
        "breakdown": {"compute": 60, "cache_stall": 40,
                      "dram_dma": 0, "network_sync": 0,
                      "setup_readback": 0},
        "notes": {"ppc.mem_stall_fraction": 0.4}})";

TEST(BenchReport, RoundTripsThroughJson)
{
    const std::vector<RunResult> &results = smallResults();
    ASSERT_EQ(results.size(), 15u);
    // The round trip must carry the notes, not just the cycles.
    EXPECT_TRUE(std::ranges::any_of(
        results, [](const RunResult &r) { return !r.notes.empty(); }));

    std::string error;
    const auto parsed = parseResultsJson(writeDocument(results), &error);
    ASSERT_TRUE(parsed.has_value()) << error;
    EXPECT_EQ(*parsed, smallReport());
    EXPECT_EQ(parsed->results, results);
    EXPECT_EQ(parsed->configHash, studyConfigHashHex(smallConfig()));
    EXPECT_EQ(parsed->seed, smallConfig().seed);

    // The hand-written fixture parses too, notes included.
    const auto fixture = parseResultsJson(documentWith(kCell), &error);
    ASSERT_TRUE(fixture.has_value()) << error;
    ASSERT_EQ(fixture->results.size(), 1u);
    EXPECT_EQ(fixture->results[0].notes,
              (std::vector<std::pair<std::string, double>>{
                  {"ppc.mem_stall_fraction", 0.4}}));
}

TEST(BenchReport, ParserRejectsMalformedDocuments)
{
    const auto rejects = [](const std::string &doc,
                            const std::string &substr) {
        std::string error;
        EXPECT_FALSE(parseResultsJson(doc, &error)) << doc;
        EXPECT_NE(error.find(substr), std::string::npos)
            << "error was: " << error;
    };
    std::string error;
    EXPECT_FALSE(parseResultsJson("", &error));
    EXPECT_FALSE(parseResultsJson("{]", &error));
    rejects("{}", "schema");
    rejects("[]", "not an object");

    // Unknown schemas, including the retired per-cell documents.
    for (const char *schema : {"triarch.bench.v1", "triarch.results.v1",
                               "triarch.results.v3"}) {
        std::string doc = documentWith(kCell);
        doc.replace(doc.find("triarch.results.v2"), 18, schema);
        rejects(doc, "unsupported schema '" + std::string(schema) + "'");
    }

    // The config block must identify the run.
    rejects(R"({"schema": "triarch.results.v2", "results": []})",
            "config");
    rejects(R"({"schema": "triarch.results.v2",
                "config": {"seed": 1}, "results": []})",
            "hash");
    rejects(R"({"schema": "triarch.results.v2",
                "config": {"hash": "x", "seed": -1}, "results": []})",
            "seed");
    rejects(R"({"schema": "triarch.results.v2",
                "config": {"hash": "x", "seed": 1}})",
            "results");

    // A cell may appear once.
    rejects(documentWith(std::string(kCell) + ", " + kCell),
            "duplicate cell ppc/ct");

    // A breakdown that does not sum to the cycle count must be
    // rejected at the parse boundary: it violates the document's
    // core invariant.
    rejects(documentWith(
                R"({"machine": "ppc", "kernel": "ct", "cycles": 100,
                    "validated": true,
                    "breakdown": {"compute": 50, "cache_stall": 0,
                                  "dram_dma": 0, "network_sync": 0,
                                  "setup_readback": 0}})"),
            "sums to 50");

    // Unknown machine token.
    rejects(documentWith(
                R"({"machine": "cray", "kernel": "ct", "cycles": 1,
                    "validated": true,
                    "breakdown": {"compute": 1, "cache_stall": 0,
                                  "dram_dma": 0, "network_sync": 0,
                                  "setup_readback": 0}})"),
            "cray");
}

// ---------------------------------------------------------------
// The committed baselines: each is a v2 document whose cells match
// the benchmark's expected Table-3 cells.
// ---------------------------------------------------------------

TEST(BenchBaselines, ParseAndMatchPerfbenchExpectedCells)
{
    const std::filesystem::path root = TRIARCH_SOURCE_DIR;
    std::stringstream text;
    text << std::ifstream(root / "perfbench/expected_table3.json")
                .rdbuf();
    std::string error;
    const auto expectedDoc = json::parse(text.str(), &error);
    ASSERT_TRUE(expectedDoc.has_value()) << error;
    const json::Value *cells = expectedDoc->field("cells");
    ASSERT_NE(cells, nullptr);
    std::vector<RunResult> expected;
    for (const json::Value &entry : cells->items) {
        RunResult r;
        ASSERT_TRUE(parseRunResult(entry, &r, &error)) << error;
        expected.push_back(r);
    }
    ASSERT_EQ(expected.size(), 15u);

    std::size_t files = 0;
    for (const auto &entry :
         std::filesystem::directory_iterator(root / "bench/baselines")) {
        const std::string path = entry.path().string();
        const auto doc = loadResultsFile(path, &error);
        ASSERT_TRUE(doc.has_value()) << error;
        ++files;
        EXPECT_FALSE(doc->results.empty()) << path;
        EXPECT_EQ(doc->configHash, studyConfigHashHex(StudyConfig{}))
            << path;
        for (const RunResult &cell : doc->results) {
            const auto want = std::ranges::find_if(
                expected, [&cell](const RunResult &r) {
                    return r.machine == cell.machine
                           && r.kernel == cell.kernel;
                });
            ASSERT_NE(want, expected.end()) << path;
            EXPECT_EQ(cell.cycles, want->cycles) << path;
            EXPECT_EQ(cell.breakdown, want->breakdown) << path;
            EXPECT_EQ(cell.validated, want->validated) << path;
            EXPECT_EQ(cell.measuredUnbalanced, want->measuredUnbalanced)
                << path;
        }
    }
    EXPECT_EQ(files, 3u);
}

// ---------------------------------------------------------------
// The diff gate: identical reports pass; perturbed baselines fail
// with named cells.
// ---------------------------------------------------------------

TEST(BenchDiff, IdenticalReportsPass)
{
    const ResultsDocument report = smallReport();
    const BenchDiffResult diff = diffBenchReports(report, report);
    EXPECT_TRUE(diff.ok());
    EXPECT_EQ(diff.cellsCompared, 15u);
}

TEST(BenchDiff, PerturbedTotalFails)
{
    const ResultsDocument fresh = smallReport();
    ResultsDocument baseline = fresh;
    // Drift one cell by 10%.
    // The breakdown moves with the total so the perturbed document
    // still satisfies the partition invariant.
    RunResult &cell = baseline.results[0];
    const std::uint64_t delta = cell.cycles / 10;
    ASSERT_GT(delta, 0u);
    cell.cycles += delta;
    cell.breakdown.total += delta;
    cell.breakdown.cycles[0] += delta;

    const BenchDiffResult diff = diffBenchReports(baseline, fresh);
    EXPECT_FALSE(diff.ok());
    // Both the total and the compute category drifted.
    EXPECT_GE(diff.failures.size(), 2u);
    EXPECT_NE(diff.failures[0].find("cycles"), std::string::npos);
}

TEST(BenchDiff, OneCycleDriftFails)
{
    // Simulation is deterministic, so the gate allows no drift: a
    // single cycle on one cell is a failure.
    const ResultsDocument fresh = smallReport();
    ResultsDocument baseline = fresh;
    RunResult &cell = baseline.results[0];
    cell.cycles += 1;
    cell.breakdown.total += 1;
    cell.breakdown.cycles[0] += 1;

    const BenchDiffResult diff = diffBenchReports(baseline, fresh);
    EXPECT_FALSE(diff.ok());
    // The total and the compute category each name the cell.
    ASSERT_EQ(diff.failures.size(), 2u);
    EXPECT_NE(diff.failures[0].find("cycles"), std::string::npos);
    EXPECT_NE(diff.failures[1].find("compute"), std::string::npos);
}

TEST(BenchDiff, CategoryShiftAtConstantTotalFails)
{
    // The profiler's whole point: moving cycles between categories
    // is a regression even when the total is unchanged.
    const ResultsDocument fresh = smallReport();
    ResultsDocument baseline = fresh;
    RunResult &cell = baseline.results[0];
    const std::uint64_t shift = cell.cycles / 10;
    ASSERT_GE(cell.breakdown.cycles[0], shift);
    cell.breakdown.cycles[0] -= shift;
    cell.breakdown.cycles[1] += shift;

    const BenchDiffResult diff = diffBenchReports(baseline, fresh);
    EXPECT_FALSE(diff.ok());
}

TEST(BenchDiff, ConfigHashMismatchFails)
{
    const ResultsDocument fresh = smallReport();
    ResultsDocument baseline = fresh;
    baseline.configHash = "deadbeef";
    const BenchDiffResult diff = diffBenchReports(baseline, fresh);
    ASSERT_FALSE(diff.ok());
    EXPECT_NE(diff.failures[0].find("config hash"), std::string::npos);
}

TEST(BenchDiff, MissingCellFails)
{
    const ResultsDocument fresh = smallReport();
    ResultsDocument truncated = fresh;
    truncated.results.pop_back();

    // Fresh report lost a cell the baseline has.
    EXPECT_FALSE(diffBenchReports(fresh, truncated).ok());
    // Fresh report grew a cell the baseline lacks.
    EXPECT_FALSE(diffBenchReports(truncated, fresh).ok());
}

TEST(BenchDiff, InvalidatedCellFails)
{
    const ResultsDocument baseline = smallReport();
    ResultsDocument fresh = baseline;
    fresh.results[3].validated = false;
    const BenchDiffResult diff = diffBenchReports(baseline, fresh);
    ASSERT_FALSE(diff.ok());
    EXPECT_NE(diff.failures[0].find("validate"), std::string::npos);
}

TEST(BenchDiff, PaperTargetBandCatchesGrossDrift)
{
    // The small config is NOT the paper's workload, so judge the
    // band logic on synthetic data anchored at the paper's values.
    ResultsDocument report;
    RunResult cell;
    cell.machine = MachineId::Viram;
    cell.kernel = KernelId::Cslc;
    cell.validated = true;
    cell.cycles = static_cast<Cycles>(
        paperTable3Kcycles(cell.machine, cell.kernel) * 1000.0);
    cell.breakdown.total = cell.cycles;
    cell.breakdown.cycles[0] = cell.cycles;
    report.results.push_back(cell);
    EXPECT_TRUE(checkPaperTargets(report, 2.0).ok());

    report.results[0].cycles *= 3;
    report.results[0].breakdown.total = report.results[0].cycles;
    report.results[0].breakdown.cycles[0] = report.results[0].cycles;
    EXPECT_FALSE(checkPaperTargets(report, 2.0).ok());
}

// ---------------------------------------------------------------
// The optional host block: round-trip, absence is byte-identical,
// and the advisory/gated host-time comparison.
// ---------------------------------------------------------------

/** A small synthetic host block over two cells. */
HostSection
fakeHostSection()
{
    HostSection host;
    host.warmup = 1;
    host.repetitions = 5;
    host.pinned = true;
    host.cellsPerSec = 12.5;
    host.cells.push_back(HostCellTiming{
        MachineId::Viram, KernelId::CornerTurn, 4.0e7, 4.5e7, 3.9e7,
        2.0e5});
    host.cells.push_back(HostCellTiming{
        MachineId::Raw, KernelId::BeamSteering, 8.0e7, 9.0e7, 7.5e7,
        5.0e5});
    return host;
}

TEST(BenchReportHost, SectionRoundTripsAndAbsenceIsByteIdentical)
{
    const std::string withoutHost = writeDocument(smallResults());
    EXPECT_EQ(withoutHost.find("\"host\""), std::string::npos)
        << "no host measurement, no host key";

    ResultsDocument report = smallReport();
    report.host = fakeHostSection();
    const std::string withHost =
        writeDocument(smallResults(), fakeHostSection());
    // The host block is appended; the cells before it are untouched.
    EXPECT_EQ(withHost.compare(0, withoutHost.size() - 3, withoutHost,
                               0, withoutHost.size() - 3),
              0);
    std::string error;
    const auto parsed = parseResultsJson(withHost, &error);
    ASSERT_TRUE(parsed.has_value()) << error;
    EXPECT_EQ(*parsed, report);
    ASSERT_TRUE(parsed->host.has_value());
    const HostCellTiming *cell =
        parsed->host->find(MachineId::Viram, KernelId::CornerTurn);
    ASSERT_NE(cell, nullptr);
    EXPECT_EQ(cell->medianNs, 4.0e7);
    EXPECT_EQ(parsed->host->find(MachineId::Imagine, KernelId::Cslc),
              nullptr);
}

TEST(BenchReportHost, ParserRejectsMalformedHostSections)
{
    const auto rejects = [](const std::string &hostJson,
                            const std::string &substr) {
        const std::string doc =
            documentWith(kCell, R"(, "host": )" + hostJson);
        std::string error;
        EXPECT_FALSE(parseResultsJson(doc, &error)) << hostJson;
        EXPECT_NE(error.find(substr), std::string::npos)
            << "error was: " << error;
    };

    rejects("[]", "host");
    rejects(R"({"repetitions": 5})", "warmup");
    rejects(R"({"warmup": 1, "repetitions": 5, "pinned": false,
                "cells_per_sec": 1.0, "cells": [
                  {"machine": "cray", "kernel": "ct", "median_ns": 1,
                   "p95_ns": 1, "min_ns": 1, "stddev_ns": 0}]})",
            "cray");
    rejects(R"({"warmup": 1, "repetitions": 5, "pinned": false,
                "cells_per_sec": 1.0, "cells": [
                  {"machine": "viram", "kernel": "ct",
                   "p95_ns": 1, "min_ns": 1, "stddev_ns": 0}]})",
            "timing");
    rejects(R"({"warmup": 1, "repetitions": 5, "pinned": false,
                "cells_per_sec": 1.0, "cells": [
                  {"machine": "viram", "kernel": "ct", "median_ns": 1,
                   "p95_ns": 1, "min_ns": 1, "stddev_ns": 0},
                  {"machine": "viram", "kernel": "ct", "median_ns": 1,
                   "p95_ns": 1, "min_ns": 1, "stddev_ns": 0}]})",
            "duplicate");
}

TEST(BenchDiffHost, AdvisoryModeNeverFails)
{
    ResultsDocument baseline = smallReport();
    ResultsDocument fresh = baseline;
    baseline.host = fakeHostSection();
    // Fresh host time 10x the baseline: advisory mode reports it but
    // stays OK; only --host-gate turns it into a failure.
    fresh.host = fakeHostSection();
    for (HostCellTiming &cell : fresh.host->cells)
        cell.medianNs *= 10.0;

    std::vector<std::string> advisory;
    const BenchDiffResult diff =
        diffHostSections(baseline, fresh, 0.0, &advisory);
    EXPECT_TRUE(diff.ok());
    EXPECT_FALSE(advisory.empty());
}

TEST(BenchDiffHost, GateFailsOnRegressionAndPassesWithin)
{
    ResultsDocument baseline = smallReport();
    baseline.host = fakeHostSection();
    ResultsDocument fresh = baseline;

    // Identical host blocks pass any gate.
    EXPECT_TRUE(diffHostSections(baseline, fresh, 1.5).ok());

    // 2x slower medians fail a 1.5x gate but pass a 3x gate.
    for (HostCellTiming &cell : fresh.host->cells)
        cell.medianNs *= 2.0;
    const BenchDiffResult tight =
        diffHostSections(baseline, fresh, 1.5);
    EXPECT_FALSE(tight.ok());
    EXPECT_FALSE(tight.failures.empty());
    EXPECT_TRUE(diffHostSections(baseline, fresh, 3.0).ok());

    // A gated run with no fresh host block is a failure, not a
    // silent pass.
    fresh.host.reset();
    EXPECT_FALSE(diffHostSections(baseline, fresh, 1.5).ok());
}

} // namespace
} // namespace triarch::study

// Re-opened for the Raw stall-tally reconciliation: the net_stalls
// scalar counts one per stalled tile-cycle, so it must equal the
// network + DMA rows of the per-tile-cycle tally partition exactly.
// (It used to undercount Dsend re-stall cycles by bumping once per
// stall *event*.)
namespace triarch::study
{
namespace
{

using raw::Assembler;
using raw::Label;
using raw::RawMachine;
using raw::regCsti;
using raw::regCsto;

TEST(RawStallTallies, NetStallsEqualNetPlusDmaTallyRows)
{
    // A deliberately contended workload: DMA-fed FIFO waits, static
    // network backpressure, and dynamic sends that re-stall on
    // occupancy while the hub drains slowly.
    RawMachine m;
    const Addr in = m.allocGlobal(2048, "in");
    std::vector<Word> data(512);
    for (unsigned i = 0; i < 512; ++i)
        data[i] = i;
    m.pokeGlobal(in, data);
    m.dmaIn(2, 2, in, 512);

    Assembler consumer;         // tile 2: drains the DMA stream
    consumer.li(2, 512);
    Label drain = consumer.label();
    consumer.bind(drain);
    consumer.move(1, regCsti);
    consumer.addi(2, 2, -1);
    consumer.bne(2, 0, drain);
    consumer.halt();
    m.setProgram(2, consumer.finish());

    for (unsigned t : {4u, 5u, 6u, 7u}) {
        Assembler spam;         // dsend floods toward tile 0
        spam.li(1, 0);
        for (int i = 0; i < 16; ++i) {
            spam.li(2, static_cast<std::int32_t>(t + i));
            spam.dsend(1, 2);
        }
        spam.halt();
        m.setProgram(t, spam.finish());
    }
    Assembler hub;              // tile 0: slow receiver
    hub.li(1, 0);
    hub.li(2, 64);
    Label loop = hub.label();
    hub.bind(loop);
    hub.drecv(3);
    hub.add(1, 1, 3);
    hub.add(1, 1, 1);
    hub.addi(2, 2, -1);
    hub.bne(2, 0, loop);
    hub.halt();
    m.setProgram(0, hub.finish());

    const Cycles cycles = m.run();
    const auto t = m.stallTallies();

    // Every tile is in exactly one state each cycle.
    EXPECT_EQ(t.busy + t.dep + t.cache + t.net + t.dma + t.idle,
              16u * cycles);
    // The busy row is precisely the retired-instruction count.
    EXPECT_EQ(t.busy, m.instructions());
    // The scalar counts per stalled cycle (including Dsend
    // re-stalls), never per stall event.
    EXPECT_EQ(m.netStalls(), t.net + t.dma);
    EXPECT_GT(t.net, 0u);
    EXPECT_GT(t.dma, 0u);
}

} // namespace
} // namespace triarch::study
