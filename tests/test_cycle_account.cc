/**
 * @file
 * Tests for the cycle-accounting profiler and the perf-regression
 * gate built on it: the exact-partition invariant of CycleAccount /
 * CycleTimeline, the per-cell breakdowns of every machine x kernel
 * mapping (categories sum exactly to the cell's cycles), their
 * bit-identical determinism across thread counts, and the
 * triarch.bench.v1 report round-trip plus bench-diff pass/fail
 * decisions on perturbed baselines.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "raw/assembler.hh"
#include "raw/machine.hh"
#include "sim/cycle_account.hh"
#include "study/bench_report.hh"
#include "study/parallel.hh"

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
// The triarch.bench.v1 report: build, write, parse round-trip.
// ---------------------------------------------------------------

/** Report for the small config, computed once (the suite's cells
 *  are deterministic, so sharing is safe). */
const BenchReport &
smallReport()
{
    static const BenchReport report = [] {
        const StudyConfig cfg = smallConfig();
        ParallelRunner runner(cfg, 1, nullptr,
                              ParallelRunner::noCache());
        return buildBenchReport(cfg, runner.runAll());
    }();
    return report;
}

TEST(BenchReport, RoundTripsThroughJson)
{
    const BenchReport &report = smallReport();
    EXPECT_EQ(report.schema, benchSchema());
    EXPECT_EQ(report.cells.size(), 15u);

    std::ostringstream os;
    writeBenchReportJson(report, os);
    std::string error;
    const auto parsed = parseBenchReportJson(os.str(), &error);
    ASSERT_TRUE(parsed.has_value()) << error;
    EXPECT_EQ(*parsed, report);
}

TEST(BenchReport, ParserRejectsMalformedDocuments)
{
    std::string error;
    EXPECT_FALSE(parseBenchReportJson("", &error));
    EXPECT_FALSE(parseBenchReportJson("{]", &error));
    EXPECT_FALSE(parseBenchReportJson("{}", &error));

    // Wrong schema.
    EXPECT_FALSE(parseBenchReportJson(
        R"({"schema": "triarch.bench.v0", "config_hash": "x",
            "seed": 1, "cells": []})",
        &error));
    EXPECT_NE(error.find("schema"), std::string::npos) << error;

    // A breakdown that does not sum to the cycle count must be
    // rejected at the parse boundary: it violates the document's
    // core invariant.
    EXPECT_FALSE(parseBenchReportJson(
        R"({"schema": "triarch.bench.v1", "config_hash": "x",
            "seed": 1, "cells": [
              {"machine": "ppc", "kernel": "ct", "cycles": 100,
               "validated": true,
               "breakdown": {"compute": 50, "cache_stall": 0,
                             "dram_dma": 0, "network_sync": 0,
                             "setup_readback": 0}}]})",
        &error));
    EXPECT_NE(error.find("sums to 50"), std::string::npos) << error;

    // Unknown machine token.
    EXPECT_FALSE(parseBenchReportJson(
        R"({"schema": "triarch.bench.v1", "config_hash": "x",
            "seed": 1, "cells": [
              {"machine": "cray", "kernel": "ct", "cycles": 1,
               "validated": true,
               "breakdown": {"compute": 1, "cache_stall": 0,
                             "dram_dma": 0, "network_sync": 0,
                             "setup_readback": 0}}]})",
        &error));
    EXPECT_NE(error.find("cray"), std::string::npos) << error;
}

// ---------------------------------------------------------------
// The diff gate: identical reports pass; perturbed baselines fail
// with named cells.
// ---------------------------------------------------------------

TEST(BenchDiff, IdenticalReportsPass)
{
    const BenchReport &report = smallReport();
    const BenchDiffResult diff = diffBenchReports(report, report);
    EXPECT_TRUE(diff.ok());
    EXPECT_EQ(diff.cellsCompared, 15u);
}

TEST(BenchDiff, PerturbedTotalFails)
{
    const BenchReport &fresh = smallReport();
    BenchReport baseline = fresh;
    // Drift one cell by 10%.
    // The breakdown moves with the total so the perturbed document
    // still satisfies the partition invariant.
    BenchCell &cell = baseline.cells[0];
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
    const BenchReport &fresh = smallReport();
    BenchReport baseline = fresh;
    BenchCell &cell = baseline.cells[0];
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
    const BenchReport &fresh = smallReport();
    BenchReport baseline = fresh;
    BenchCell &cell = baseline.cells[0];
    const std::uint64_t shift = cell.cycles / 10;
    ASSERT_GE(cell.breakdown.cycles[0], shift);
    cell.breakdown.cycles[0] -= shift;
    cell.breakdown.cycles[1] += shift;

    const BenchDiffResult diff = diffBenchReports(baseline, fresh);
    EXPECT_FALSE(diff.ok());
}

TEST(BenchDiff, ConfigHashMismatchFails)
{
    const BenchReport &fresh = smallReport();
    BenchReport baseline = fresh;
    baseline.configHash = "deadbeef";
    const BenchDiffResult diff = diffBenchReports(baseline, fresh);
    ASSERT_FALSE(diff.ok());
    EXPECT_NE(diff.failures[0].find("config hash"), std::string::npos);
}

TEST(BenchDiff, MissingCellFails)
{
    const BenchReport &fresh = smallReport();
    BenchReport truncated = fresh;
    truncated.cells.pop_back();

    // Fresh report lost a cell the baseline has.
    EXPECT_FALSE(diffBenchReports(fresh, truncated).ok());
    // Fresh report grew a cell the baseline lacks.
    EXPECT_FALSE(diffBenchReports(truncated, fresh).ok());
}

TEST(BenchDiff, InvalidatedCellFails)
{
    const BenchReport &baseline = smallReport();
    BenchReport fresh = baseline;
    fresh.cells[3].validated = false;
    const BenchDiffResult diff = diffBenchReports(baseline, fresh);
    ASSERT_FALSE(diff.ok());
    EXPECT_NE(diff.failures[0].find("validate"), std::string::npos);
}

TEST(BenchDiff, PaperTargetBandCatchesGrossDrift)
{
    // The small config is NOT the paper's workload, so judge the
    // band logic on synthetic data anchored at the paper's values.
    BenchReport report;
    report.schema = benchSchema();
    BenchCell cell;
    cell.machine = MachineId::Viram;
    cell.kernel = KernelId::Cslc;
    cell.validated = true;
    cell.cycles = static_cast<Cycles>(
        paperTable3Kcycles(cell.machine, cell.kernel) * 1000.0);
    cell.breakdown.total = cell.cycles;
    cell.breakdown.cycles[0] = cell.cycles;
    report.cells.push_back(cell);
    EXPECT_TRUE(checkPaperTargets(report, 2.0).ok());

    report.cells[0].cycles *= 3;
    report.cells[0].breakdown.total = report.cells[0].cycles;
    report.cells[0].breakdown.cycles[0] = report.cells[0].cycles;
    EXPECT_FALSE(checkPaperTargets(report, 2.0).ok());
}

// ---------------------------------------------------------------
// The optional host section: round-trip, absence is byte-identical,
// and the advisory/gated host-time comparison.
// ---------------------------------------------------------------

/** A small synthetic host section over two cells. */
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
    const BenchReport &bare = smallReport();
    std::ostringstream withoutHost;
    writeBenchReportJson(bare, withoutHost);
    EXPECT_EQ(withoutHost.str().find("\"host\""), std::string::npos)
        << "no host flags, no host key";

    BenchReport report = bare;
    report.host = fakeHostSection();
    std::ostringstream os;
    writeBenchReportJson(report, os);
    std::string error;
    const auto parsed = parseBenchReportJson(os.str(), &error);
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
            R"({"schema": "triarch.bench.v1", "config_hash": "x",
                "seed": 1, "cells": [], "host": )"
            + hostJson + "}";
        std::string error;
        EXPECT_FALSE(parseBenchReportJson(doc, &error)) << hostJson;
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
}

TEST(BenchDiffHost, AdvisoryModeNeverFails)
{
    BenchReport baseline = smallReport();
    BenchReport fresh = baseline;
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
    BenchReport baseline = smallReport();
    baseline.host = fakeHostSection();
    BenchReport fresh = baseline;

    // Identical host sections pass any gate.
    EXPECT_TRUE(diffHostSections(baseline, fresh, 1.5).ok());

    // 2x slower medians fail a 1.5x gate but pass a 3x gate.
    for (HostCellTiming &cell : fresh.host->cells)
        cell.medianNs *= 2.0;
    const BenchDiffResult tight =
        diffHostSections(baseline, fresh, 1.5);
    EXPECT_FALSE(tight.ok());
    EXPECT_FALSE(tight.failures.empty());
    EXPECT_TRUE(diffHostSections(baseline, fresh, 3.0).ok());

    // A gated run with no fresh host section is a failure, not a
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
