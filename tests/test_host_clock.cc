/**
 * @file
 * Tests for the host-time observability layer (sim/host_clock.hh):
 *
 *  - the repeated-measurement contract: exact order statistics on
 *    synthetic samples, and warmup iterations running unmeasured;
 *  - the profiling gate: PhaseSplit measures nothing while profiling
 *    is off, so no "<label>.host" group and no scheduler host total
 *    reaches a triarch.stats.v1 document;
 *  - the profiled document: one exact three-scalar ".host" group per
 *    cell, bounded by the scheduler's cell_host_ns total;
 *  - the determinism pin itself: the full profiling-off stats
 *    document is bit-identical across 1/2/8 worker threads.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <sstream>

#include "sim/host_clock.hh"
#include "sim/json.hh"
#include "sim/metrics.hh"
#include "study/parallel.hh"

namespace triarch
{
namespace
{

/** Restores the process-wide profiling gate on scope exit so a
 *  failing test cannot leak an enabled gate into its neighbors. */
struct ProfilingGuard
{
    explicit ProfilingGuard(bool on) { host::setProfiling(on); }
    ~ProfilingGuard() { host::setProfiling(false); }
};

/** A seconds-fast config that still runs every cell. */
study::StudyConfig
smallConfig()
{
    study::StudyConfig cfg;
    cfg.matrixSize = 128;
    cfg.cslc.subBands = 8;
    cfg.cslc.samples = (cfg.cslc.subBands - 1) * cfg.cslc.subBandStride
                       + cfg.cslc.subBandLen;
    cfg.beam.elements = 256;
    cfg.beam.dwells = 2;
    cfg.jammerBins = {64, 200};
    return cfg;
}

/** The global registry's triarch.stats.v1 document, now. */
std::string
statsDoc()
{
    std::ostringstream os;
    metrics::MetricsRegistry::global().writeJson(os);
    return os.str();
}

// ---------------------------------------------------------------
// The repeated-measurement contract.
// ---------------------------------------------------------------

TEST(RepeatedMeasurement, SummaryStatisticsAreExact)
{
    const auto s =
        host::summarizeSamples({50.0, 10.0, 40.0, 20.0, 30.0});
    EXPECT_EQ(s.repetitions, 5u);
    EXPECT_DOUBLE_EQ(s.minNs, 10.0);
    EXPECT_DOUBLE_EQ(s.maxNs, 50.0);
    EXPECT_DOUBLE_EQ(s.meanNs, 30.0);
    EXPECT_DOUBLE_EQ(s.medianNs, 30.0);
    // P95 at rank 0.95 * (n - 1) = 3.8: linear interpolation between
    // the 4th and 5th order statistics.
    EXPECT_DOUBLE_EQ(s.p95Ns, 48.0);
    // Population stddev of {10..50 step 10} is sqrt(200).
    EXPECT_NEAR(s.stddevNs, 14.142135623730951, 1e-9);

    const auto empty = host::summarizeSamples({});
    EXPECT_EQ(empty.repetitions, 0u);
    EXPECT_DOUBLE_EQ(empty.medianNs, 0.0);
}

TEST(RepeatedMeasurement, WarmupRunsUnmeasured)
{
    host::MeasureOptions opts;
    opts.warmup = 2;
    opts.repetitions = 5;

    std::atomic<unsigned> calls{0};
    const auto m = host::measureRepeated(opts, [&] { ++calls; });
    EXPECT_EQ(calls.load(), 7u) << "warmup + repetitions";
    EXPECT_EQ(m.stats.repetitions, 5u);
    EXPECT_GE(m.stats.maxNs, m.stats.minNs);
    EXPECT_GT(m.peakRssBytes, 0u) << "getrusage should be available";
}

// ---------------------------------------------------------------
// The profiling gate.
// ---------------------------------------------------------------

TEST(PhaseSplit, RecordsNothingWhileProfilingIsOff)
{
    {
        ProfilingGuard off(false);
        host::PhaseSplit split;
        split.startRun();
        split.startReadback();
        EXPECT_FALSE(split.finish().has_value());
    }
    {
        ProfilingGuard on(true);
        const std::uint64_t before = host::nowNs();
        host::PhaseSplit split;
        split.startRun();
        split.startReadback();
        const auto phases = split.finish();
        const std::uint64_t after = host::nowNs();
        ASSERT_TRUE(phases.has_value());
        EXPECT_LE(phases->setup + phases->run + phases->readback,
                  after - before);
    }
}

// ---------------------------------------------------------------
// The determinism pin: stats documents across thread counts.
// ---------------------------------------------------------------

TEST(StatsDeterminism, DocumentsAreBitIdenticalAcrossThreadCounts)
{
    std::string first;
    for (unsigned threads : {1u, 2u, 8u}) {
        {
            study::ParallelRunner par(
                smallConfig(), threads, nullptr,
                study::ParallelRunner::noCache());
            par.runAll();
        }
        const std::string doc = statsDoc();
        EXPECT_EQ(doc.find(".host\""), std::string::npos)
            << "host groups captured with profiling off";
        EXPECT_EQ(doc.find("_ns\""), std::string::npos)
            << "host totals registered with profiling off";
        if (first.empty())
            first = doc;
        else
            EXPECT_EQ(doc, first) << threads << " threads";
    }
}

// ---------------------------------------------------------------
// The profiled document: exact per-cell host phases.
// ---------------------------------------------------------------

TEST(StatsDeterminism, ProfiledCellsCaptureExactHostGroups)
{
    {
        ProfilingGuard on(true);
        study::ParallelRunner par(smallConfig(), 8, nullptr,
                                  study::ParallelRunner::noCache());
        par.runAll();
    }
    std::string error;
    const auto doc = json::parse(statsDoc(), &error);
    ASSERT_TRUE(doc) << error;

    const auto scalarOf = [](const json::Value &group,
                             const std::string &name) {
        std::uint64_t v = 0;
        const json::Value *s = group.field("scalars")->field(name);
        EXPECT_TRUE(s && s->asU64(v)) << name;
        return v;
    };
    unsigned hostGroups = 0;
    std::uint64_t phaseSum = 0, cellHostNs = 0;
    for (const json::Value &g : doc->field("groups")->items) {
        const std::string &label = g.field("label")->text;
        if (label.ends_with(".host")) {
            ++hostGroups;
            EXPECT_EQ(g.field("group")->text, "host");
            ASSERT_EQ(g.field("scalars")->fields.size(), 3u) << label;
            for (const char *name : {"setup_ns", "run_ns", "readback_ns"})
                phaseSum += scalarOf(g, name);
        } else if (label == "scheduler") {
            cellHostNs = scalarOf(g, "cell_host_ns");
            (void)scalarOf(g, "queue_wait_ns");
        }
    }
    EXPECT_EQ(hostGroups, 15u);
    // Each cell's phases run inside its mapping call, which the
    // scheduler's per-cell total brackets.
    EXPECT_GT(phaseSum, 0u);
    EXPECT_LE(phaseSum, cellHostNs);

    // The host groups are wall clock: keep them out of the profiling-
    // off documents later tests in this process render.
    metrics::MetricsRegistry::global().clear();
}

} // namespace
} // namespace triarch
