/**
 * @file
 * Tests for the host-time observability layer (sim/host_clock.hh and
 * the log-bucketed stats::Histogram behind it):
 *
 *  - bucket geometry: deterministic index/bounds that partition the
 *    full u64 range, and order-independent exact counts;
 *  - quantile estimates clamped to the observed range and exact for
 *    degenerate (single-value) sample sets;
 *  - the profiling gate: empty histograms are invisible in dump(),
 *    histogramReadings(), and the stats JSON, and PhaseSplit records
 *    nothing while profiling is off — which is what keeps
 *    triarch.stats.v1 documents byte-identical to the pre-host repo;
 *  - the repeated-measurement contract: exact order statistics on
 *    synthetic samples, and warmup iterations running unmeasured;
 *  - the determinism pin itself: the full stats document is
 *    bit-identical across 1/2/8 worker threads.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <sstream>

#include "sim/host_clock.hh"
#include "sim/metrics.hh"
#include "sim/stats.hh"
#include "study/parallel.hh"

namespace triarch
{
namespace
{

using stats::Histogram;

/** Restores the process-wide profiling gate on scope exit so a
 *  failing test cannot leak an enabled gate into its neighbors. */
struct ProfilingGuard
{
    explicit ProfilingGuard(bool on) { host::setProfiling(on); }
    ~ProfilingGuard() { host::setProfiling(false); }
};

// ---------------------------------------------------------------
// Bucket geometry.
// ---------------------------------------------------------------

TEST(HistogramBuckets, IndexAndBoundsAreDeterministic)
{
    EXPECT_EQ(Histogram::bucketIndex(0), 0u);
    EXPECT_EQ(Histogram::bucketIndex(1), 1u);
    EXPECT_EQ(Histogram::bucketIndex(2), 2u);
    EXPECT_EQ(Histogram::bucketIndex(3), 2u);
    EXPECT_EQ(Histogram::bucketIndex(4), 3u);
    EXPECT_EQ(Histogram::bucketIndex(~std::uint64_t{0}), 64u);

    // Every sample lands in a bucket whose [low, high) bounds
    // contain it (the top bucket's high is the u64 maximum).
    for (std::uint64_t v : {std::uint64_t{0}, std::uint64_t{1},
                            std::uint64_t{7}, std::uint64_t{1024},
                            std::uint64_t{1} << 40,
                            (~std::uint64_t{0}) - 1}) {
        const std::size_t i = Histogram::bucketIndex(v);
        ASSERT_LT(i, Histogram::NumBuckets);
        EXPECT_GE(v, Histogram::bucketLow(i)) << "value " << v;
        if (i < 64) {
            EXPECT_LT(v, Histogram::bucketHigh(i)) << "value " << v;
        }
    }
}

TEST(HistogramBuckets, CountsAreExactAndOrderIndependent)
{
    const std::uint64_t samples[] = {0, 1, 1, 3, 900, 4096, 4097};

    Histogram forward;
    for (std::uint64_t v : samples)
        forward.record(v);
    Histogram backward;
    for (auto it = std::rbegin(samples); it != std::rend(samples); ++it)
        backward.record(*it);

    for (const Histogram *h : {&forward, &backward}) {
        EXPECT_EQ(h->count(), 7u);
        EXPECT_EQ(h->sum(), 0u + 1 + 1 + 3 + 900 + 4096 + 4097);
        EXPECT_EQ(h->minValue(), 0u);
        EXPECT_EQ(h->maxValue(), 4097u);
        EXPECT_EQ(h->bucket(0), 1u);    // the 0 sample
        EXPECT_EQ(h->bucket(1), 2u);    // both 1s
        EXPECT_EQ(h->bucket(2), 1u);    // 3
        EXPECT_EQ(h->bucket(10), 1u);   // 900 in [512, 1024)
        EXPECT_EQ(h->bucket(13), 2u);   // 4096 and 4097 in [4096, 8192)
    }
    for (std::size_t i = 0; i < Histogram::NumBuckets; ++i)
        EXPECT_EQ(forward.bucket(i), backward.bucket(i)) << i;
}

TEST(HistogramBuckets, QuantilesClampToTheObservedRange)
{
    Histogram h;
    EXPECT_EQ(h.median(), 0.0) << "empty histogram";

    for (int i = 0; i < 40; ++i)
        h.record(1000);
    EXPECT_EQ(h.median(), 1000.0)
        << "single-value histograms are exact";
    EXPECT_EQ(h.p95(), 1000.0);

    h.record(8);
    h.record(100000);
    EXPECT_GE(h.median(), 8.0);
    EXPECT_LE(h.p95(), 100000.0);
    EXPECT_LE(h.median(), h.p95());

    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.median(), 0.0);
}

// ---------------------------------------------------------------
// Visibility: empty histograms must not change any rendering.
// ---------------------------------------------------------------

TEST(StatGroupHistograms, EmptyHistogramsAreInvisibleEverywhere)
{
    stats::StatGroup group("hosttest");
    Histogram h;
    group.addHistogram("lat_ns", &h, "a latency histogram");

    EXPECT_TRUE(group.histogramReadings().empty());
    std::ostringstream empty;
    group.dump(empty);
    EXPECT_EQ(empty.str().find("lat_ns"), std::string::npos);

    metrics::MetricsRegistry registry;
    registry.capture(group, "hosttest");
    std::ostringstream doc;
    registry.writeJson(doc);
    EXPECT_EQ(doc.str().find("histograms"), std::string::npos)
        << "profiling-off documents must not grow a histograms key";

    h.record(640);
    const auto readings = group.histogramReadings();
    ASSERT_EQ(readings.size(), 1u);
    EXPECT_EQ(readings[0].name, "lat_ns");
    EXPECT_EQ(readings[0].count, 1u);
    ASSERT_EQ(readings[0].buckets.size(), 1u);
    EXPECT_EQ(readings[0].buckets[0].first, 10u);    // [512, 1024)

    std::ostringstream filled;
    group.dump(filled);
    EXPECT_NE(filled.str().find("hosttest.lat_ns count 1"),
              std::string::npos)
        << filled.str();

    registry.capture(group, "hosttest");
    std::ostringstream doc2;
    registry.writeJson(doc2);
    EXPECT_NE(doc2.str().find("\"histograms\""), std::string::npos);
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
    stats::StatGroup group("gate");
    host::HostPhases phases;
    phases.addTo(group);

    {
        ProfilingGuard off(false);
        host::PhaseSplit split;
        split.startRun();
        split.startReadback();
        split.record(phases);
    }
    EXPECT_EQ(phases.setupNs.count(), 0u);
    EXPECT_EQ(phases.runNs.count(), 0u);
    EXPECT_EQ(phases.readbackNs.count(), 0u);

    {
        ProfilingGuard on(true);
        host::PhaseSplit split;
        split.startRun();
        split.startReadback();
        split.record(phases);
    }
    EXPECT_EQ(phases.setupNs.count(), 1u);
    EXPECT_EQ(phases.runNs.count(), 1u);
    EXPECT_EQ(phases.readbackNs.count(), 1u);
}

// ---------------------------------------------------------------
// The determinism pin: stats documents across thread counts.
// ---------------------------------------------------------------

TEST(StatsDeterminism, DocumentsAreBitIdenticalAcrossThreadCounts)
{
    study::StudyConfig cfg;
    cfg.matrixSize = 128;
    cfg.cslc.subBands = 8;
    cfg.cslc.samples = (cfg.cslc.subBands - 1) * cfg.cslc.subBandStride
                       + cfg.cslc.subBandLen;
    cfg.beam.elements = 256;
    cfg.beam.dwells = 2;
    cfg.jammerBins = {64, 200};

    std::string first;
    for (unsigned threads : {1u, 2u, 8u}) {
        {
            study::ParallelRunner par(
                cfg, threads, nullptr,
                study::ParallelRunner::noCache());
            par.runAll();
        }
        std::ostringstream os;
        metrics::MetricsRegistry::global().writeJson(os);
        const std::string doc = os.str();
        EXPECT_EQ(doc.find("histograms"), std::string::npos)
            << "host histograms recorded with profiling off";
        if (first.empty())
            first = doc;
        else
            EXPECT_EQ(doc, first) << threads << " threads";
    }
}

} // namespace
} // namespace triarch
