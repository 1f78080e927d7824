/**
 * @file
 * Tests for the tracing + metrics subsystem: the Chrome trace-event
 * document is syntactically valid JSON with well-nested spans on
 * every lane, the per-cell scheduler spans carry their queue-wait
 * attribution, each executed cell draws one epoch counter track per
 * hw channel inside its execute span, StatGroup deltas ride on
 * machine phase spans, the triarch.stats.v1 document is
 * bit-identical at any worker-thread count, and the disabled fast
 * path performs no allocation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdlib>
#include <cstring>
#include <map>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "sim/hw_report.hh"
#include "sim/metrics.hh"
#include "sim/trace.hh"
#include "study/parallel.hh"

// ---------------------------------------------------------------
// Global allocation tally for the disabled-path test. Counting is
// always on; only the one test reads it.
// ---------------------------------------------------------------

namespace
{

std::atomic<std::uint64_t> allocationCount{0};

} // namespace

// GCC flags free() inside a replaced operator delete as a
// new/delete mismatch; the pointers always come from the malloc in
// the replaced operator new above, so the pairing is correct.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void *
operator new(std::size_t size)
{
    allocationCount.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

#pragma GCC diagnostic pop

namespace triarch
{
namespace
{

using study::Cell;
using study::KernelId;
using study::MachineId;
using study::ParallelRunner;
using study::ResultCache;
using study::StudyConfig;

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
// A minimal recursive-descent JSON syntax validator: accepts the
// full JSON grammar, rejects anything malformed. Enough to prove
// the writers emit documents Perfetto's parser will take.
// ---------------------------------------------------------------

class JsonValidator
{
  public:
    explicit JsonValidator(const std::string &text) : s(text) {}

    bool
    valid()
    {
        skipWs();
        if (!value())
            return false;
        skipWs();
        return pos == s.size();
    }

  private:
    bool
    value()
    {
        if (pos >= s.size())
            return false;
        switch (s[pos]) {
          case '{': return object();
          case '[': return array();
          case '"': return string();
          case 't': return literal("true");
          case 'f': return literal("false");
          case 'n': return literal("null");
          default: return number();
        }
    }

    bool
    object()
    {
        ++pos;                          // consume '{'
        skipWs();
        if (peek() == '}') { ++pos; return true; }
        while (true) {
            skipWs();
            if (!string())
                return false;
            skipWs();
            if (peek() != ':')
                return false;
            ++pos;
            skipWs();
            if (!value())
                return false;
            skipWs();
            if (peek() == ',') { ++pos; continue; }
            if (peek() == '}') { ++pos; return true; }
            return false;
        }
    }

    bool
    array()
    {
        ++pos;                          // consume '['
        skipWs();
        if (peek() == ']') { ++pos; return true; }
        while (true) {
            skipWs();
            if (!value())
                return false;
            skipWs();
            if (peek() == ',') { ++pos; continue; }
            if (peek() == ']') { ++pos; return true; }
            return false;
        }
    }

    bool
    string()
    {
        if (peek() != '"')
            return false;
        ++pos;
        while (pos < s.size()) {
            const char c = s[pos];
            if (c == '"') { ++pos; return true; }
            if (static_cast<unsigned char>(c) < 0x20)
                return false;           // raw control character
            if (c == '\\') {
                ++pos;
                if (pos >= s.size())
                    return false;
                const char e = s[pos];
                if (e == 'u') {
                    for (int i = 0; i < 4; ++i) {
                        ++pos;
                        if (pos >= s.size() || !std::isxdigit(
                                static_cast<unsigned char>(s[pos])))
                            return false;
                    }
                } else if (!strchr("\"\\/bfnrt", e)) {
                    return false;
                }
            }
            ++pos;
        }
        return false;                   // unterminated
    }

    bool
    number()
    {
        const std::size_t start = pos;
        if (peek() == '-')
            ++pos;
        while (std::isdigit(static_cast<unsigned char>(peek())))
            ++pos;
        if (peek() == '.') {
            ++pos;
            while (std::isdigit(static_cast<unsigned char>(peek())))
                ++pos;
        }
        if (peek() == 'e' || peek() == 'E') {
            ++pos;
            if (peek() == '+' || peek() == '-')
                ++pos;
            while (std::isdigit(static_cast<unsigned char>(peek())))
                ++pos;
        }
        return pos > start
               && std::isdigit(static_cast<unsigned char>(s[pos - 1]));
    }

    bool
    literal(const char *word)
    {
        const std::size_t len = std::strlen(word);
        if (s.compare(pos, len, word) != 0)
            return false;
        pos += len;
        return true;
    }

    char peek() const { return pos < s.size() ? s[pos] : '\0'; }

    void
    skipWs()
    {
        while (pos < s.size()
               && (s[pos] == ' ' || s[pos] == '\n' || s[pos] == '\t'
                   || s[pos] == '\r'))
            ++pos;
    }

    const std::string &s;
    std::size_t pos = 0;
};

// ---------------------------------------------------------------
// Line-level event extraction: writeJson emits one event per line
// with a fixed key order, so tests can pull fields without a DOM.
// ---------------------------------------------------------------

struct FlatEvent
{
    std::string name;
    char phase = '?';
    long tid = -1;
    double ts = 0.0;
    double dur = 0.0;
    std::string line;
};

std::vector<FlatEvent>
extractEvents(const std::string &doc)
{
    std::vector<FlatEvent> events;
    std::istringstream is(doc);
    std::string line;
    auto field = [&](const std::string &key) -> std::string {
        const auto at = line.find("\"" + key + "\": ");
        if (at == std::string::npos)
            return {};
        auto from = at + key.size() + 4;
        bool quoted = line[from] == '"';
        if (quoted)
            ++from;
        auto to = from;
        while (to < line.size()
               && (quoted ? line[to] != '"'
                          : (line[to] != ',' && line[to] != '}')))
            ++to;
        return line.substr(from, to - from);
    };
    while (std::getline(is, line)) {
        if (line.find("\"ph\"") == std::string::npos)
            continue;
        FlatEvent e;
        e.name = field("name");
        const std::string ph = field("ph");
        e.phase = ph.empty() ? '?' : ph[0];
        if (const std::string v = field("tid"); !v.empty())
            e.tid = std::stol(v);
        if (const std::string v = field("ts"); !v.empty())
            e.ts = std::stod(v);
        if (const std::string v = field("dur"); !v.empty())
            e.dur = std::stod(v);
        e.line = line;
        events.push_back(std::move(e));
    }
    return events;
}

// ---------------------------------------------------------------
// Trace document shape.
// ---------------------------------------------------------------

TEST(TraceSessionTest, SweepEmitsValidWellNestedDocument)
{
    trace::TraceSession sess;
    sess.start();
    {
        ResultCache cache;
        ParallelRunner par(smallConfig(), 4, nullptr, &cache);
        par.runAll();
        par.runAll();               // second sweep is cache-served
    }
    sess.stop();

    std::ostringstream os;
    sess.writeJson(os);
    const std::string doc = os.str();

    JsonValidator validator(doc);
    EXPECT_TRUE(validator.valid()) << "trace is not valid JSON";

    const auto events = extractEvents(doc);
    ASSERT_FALSE(events.empty());

    // Per-cell spans carry the queue-wait attribution and nest an
    // "execute" child; cache-served cells are marked.
    unsigned cellSpans = 0, executeSpans = 0, cachedSpans = 0;
    unsigned counters = 0;
    for (const auto &e : events) {
        if (e.phase == 'C')
            ++counters;
        if (e.phase != 'X')
            continue;
        if (e.line.find("\"queue_wait_us\"") != std::string::npos)
            ++cellSpans;
        if (e.name == "execute")
            ++executeSpans;
        if (e.line.find("\"cached\"") != std::string::npos)
            ++cachedSpans;
    }
    EXPECT_EQ(cellSpans, 15u);
    EXPECT_EQ(executeSpans, 15u);
    EXPECT_EQ(cachedSpans, 15u);
    EXPECT_GE(counters, 15u) << "scheduler progress counters missing";
    EXPECT_NE(doc.find("scheduler.cells_done"), std::string::npos);
    EXPECT_NE(doc.find("cache.hits"), std::string::npos);
    EXPECT_NE(doc.find("cache.misses"), std::string::npos);

    // Lanes are named.
    EXPECT_NE(doc.find("\"thread_name\""), std::string::npos);
    EXPECT_NE(doc.find("\"main\""), std::string::npos);
    EXPECT_NE(doc.find("\"worker-0\""), std::string::npos);

    // Spans on one lane are properly nested: any two either do not
    // overlap or one contains the other.
    std::map<long, std::vector<const FlatEvent *>> byLane;
    for (const auto &e : events) {
        if (e.phase == 'X')
            byLane[e.tid].push_back(&e);
    }
    for (const auto &[lane, spans] : byLane) {
        for (std::size_t i = 0; i < spans.size(); ++i) {
            for (std::size_t j = i + 1; j < spans.size(); ++j) {
                const FlatEvent &a = *spans[i];
                const FlatEvent &b = *spans[j];
                const double aEnd = a.ts + a.dur;
                const double bEnd = b.ts + b.dur;
                const bool overlap = a.ts < bEnd && b.ts < aEnd;
                if (!overlap)
                    continue;
                const bool aInB = b.ts <= a.ts && aEnd <= bEnd;
                const bool bInA = a.ts <= b.ts && bEnd <= aEnd;
                EXPECT_TRUE(aInB || bInA)
                    << "lane " << lane << ": spans '" << a.name
                    << "' and '" << b.name << "' partially overlap";
            }
        }
    }
}

TEST(TraceSessionTest, ExecutedCellsDrawTheirEpochCounterTracks)
{
    const StudyConfig cfg = smallConfig();
    hw::HwRegistry::global().clear();
    trace::TraceSession sess;
    sess.start();
    std::vector<study::RunResult> computed;
    {
        ParallelRunner par(cfg, 4);         // uncached: all execute
        computed = par.runAll();
    }
    auto hwSamples = [&] {
        std::ostringstream os;
        sess.writeJson(os);
        const auto events = extractEvents(os.str());
        return std::count_if(events.begin(), events.end(),
                             [](const FlatEvent &e) {
                                 return e.phase == 'C'
                                        && e.name.find(".hw.")
                                               != std::string::npos;
                             });
    };
    const auto afterSweep = hwSamples();
    {
        // Every cell is already in the memo: nothing executes, so
        // nothing may add a hardware counter sample.
        ResultCache cache;
        for (const study::RunResult &r : computed)
            cache.put(r, study::studyConfigHash(cfg));
        ParallelRunner par(cfg, 4, nullptr, &cache);
        par.runAll();
        EXPECT_EQ(par.statGroup().scalar("cells_cached"), 15u);
    }
    EXPECT_EQ(hwSamples(), afterSweep)
        << "a cache-served cell drew hardware counter samples";
    sess.stop();

    std::ostringstream os;
    sess.writeJson(os);
    const auto events = extractEvents(os.str());
    std::map<std::string, std::vector<const FlatEvent *>> tracks;
    for (const auto &e : events) {
        if (e.phase == 'C' && e.name.find(".hw.") != std::string::npos)
            tracks[e.name].push_back(&e);
    }

    const hw::HwReport report = hw::HwRegistry::global().report();
    ASSERT_EQ(report.cells.size(), 15u);
    std::size_t channels = 0;
    for (const hw::HwCell &cell : report.cells) {
        const std::string label = cell.machine + "/" + cell.kernel;
        // The cell's span (it carries the queue wait) and the
        // "execute" span nested in it on the same lane.
        const FlatEvent *cellSpan = nullptr;
        for (const auto &e : events) {
            if (e.phase == 'X' && e.name == label
                && e.line.find("\"queue_wait_us\"") != std::string::npos)
                cellSpan = &e;
        }
        ASSERT_NE(cellSpan, nullptr) << label;
        const FlatEvent *exec = nullptr;
        for (const auto &e : events) {
            if (e.phase == 'X' && e.name == "execute"
                && e.tid == cellSpan->tid && cellSpan->ts <= e.ts
                && e.ts + e.dur <= cellSpan->ts + cellSpan->dur)
                exec = &e;
        }
        ASSERT_NE(exec, nullptr) << label;

        const std::size_t epochs = cell.timeline.epochs();
        ASSERT_GT(epochs, 0u) << label;
        for (const hw::EpochChannel &ch : cell.timeline.channels) {
            ++channels;
            const std::string name = label + ".hw." + ch.name;
            const auto it = tracks.find(name);
            ASSERT_NE(it, tracks.end()) << "no counter track " << name;
            EXPECT_EQ(it->second.size(), epochs) << name;
            for (const FlatEvent *sample : it->second) {
                EXPECT_GE(sample->ts, exec->ts) << name;
                EXPECT_LE(sample->ts, exec->ts + exec->dur) << name;
            }
        }
    }
    // No track beyond one per channel of an executed cell.
    EXPECT_EQ(tracks.size(), channels);
    hw::HwRegistry::global().clear();
}

TEST(TraceSessionTest, SpanArgsAndEscapingSurviveSerialization)
{
    trace::TraceSession sess;
    sess.start();
    const double t0 = sess.nowUs();
    sess.span("with \"quotes\"\nand newline", "test", t0, 1.5,
              {{"answer", 42.0}});
    sess.counter("tally", 7.0);
    sess.stop();

    std::ostringstream os;
    sess.writeJson(os);
    const std::string doc = os.str();

    JsonValidator validator(doc);
    EXPECT_TRUE(validator.valid());
    EXPECT_NE(doc.find("with \\\"quotes\\\"\\nand newline"),
              std::string::npos);
    EXPECT_NE(doc.find("\"answer\": 42"), std::string::npos);
    EXPECT_NE(doc.find("\"tally\""), std::string::npos);
    EXPECT_EQ(sess.events(), 2u);
}

TEST(TraceSessionTest, SecondConcurrentSessionDies)
{
    trace::TraceSession first;
    first.start();
    EXPECT_TRUE(first.running());
    EXPECT_TRUE(trace::TraceSession::enabled());

    trace::TraceSession second;
    EXPECT_DEATH(second.start(), "already active");

    first.stop();
    EXPECT_FALSE(trace::TraceSession::enabled());
}

TEST(TraceScopeTest, StatGroupDeltasRideOnTheSpan)
{
    stats::Scalar rowMisses, untouched;
    stats::StatGroup group("dram");
    group.addScalar("row_misses", &rowMisses, "row buffer misses");
    group.addScalar("untouched", &untouched);

    trace::TraceSession sess;
    sess.start();
    {
        trace::TraceScope scope("phase", "test", &group);
        rowMisses += 3;
    }
    sess.stop();

    std::ostringstream os;
    sess.writeJson(os);
    const std::string doc = os.str();
    EXPECT_NE(doc.find("\"row_misses_delta\": 3"), std::string::npos);
    EXPECT_EQ(doc.find("untouched_delta"), std::string::npos)
        << "counters that did not move must not be attached";
}

TEST(TraceScopeTest, EndIsIdempotent)
{
    trace::TraceSession sess;
    sess.start();
    {
        trace::TraceScope scope("phase", "test");
        scope.end();
        scope.end();                // second end must not re-emit
    }                               // nor must the destructor
    sess.stop();
    EXPECT_EQ(sess.events(), 1u);
}

TEST(TraceScopeTest, DisabledPathAllocatesNothing)
{
    ASSERT_FALSE(trace::TraceSession::enabled());
    const std::uint64_t before =
        allocationCount.load(std::memory_order_relaxed);
    {
        trace::TraceScope scope("hot.loop", "test");
    }
    trace::counter("hot.counter", 1.0);
    trace::counterAt("hot.counter_at", 12.5, 2.0);
    const std::uint64_t after =
        allocationCount.load(std::memory_order_relaxed);
    EXPECT_EQ(after, before)
        << "disabled tracing must not allocate on the hot path";
}

// ---------------------------------------------------------------
// The stats document: deterministic across worker-thread counts.
// ---------------------------------------------------------------

TEST(MetricsDeterminism, StatsJsonBitIdenticalAcrossThreadCounts)
{
    const StudyConfig cfg = smallConfig();
    auto statsDoc = [&](unsigned threads) {
        metrics::MetricsRegistry::global().clear();
        {
            ParallelRunner par(cfg, threads);
            par.runAll();
        }                           // captures its scheduler group
        std::ostringstream os;
        metrics::MetricsRegistry::global().writeJson(os);
        return os.str();
    };

    const std::string at1 = statsDoc(1);
    const std::string at2 = statsDoc(2);
    const std::string at8 = statsDoc(8);
    EXPECT_EQ(at1, at2);
    EXPECT_EQ(at1, at8);

    JsonValidator validator(at1);
    EXPECT_TRUE(validator.valid()) << "stats doc is not valid JSON";
    EXPECT_NE(at1.find("\"schema\": \"triarch.stats.v1\""),
              std::string::npos);
    // Every machine ran every kernel; the scheduler group was
    // captured when its runner died.
    // The mem-subsystem component groups (caches, bus, TLB, DRAM
    // channels, per-tile D-caches) are captured uniformly per cell.
    for (const char *label :
         {"\"ppc.ct\"", "\"altivec.cslc\"", "\"viram.ct\"",
          "\"imagine.cslc\"", "\"raw.bs\"", "\"scheduler\"",
          "\"ppc.ct.l1\"", "\"ppc.bs.l2\"", "\"altivec.cslc.fsb\"",
          "\"viram.ct.tlb\"", "\"imagine.cslc.dram0\"",
          "\"raw.bs.dcache15\""})
        EXPECT_NE(at1.find(label), std::string::npos) << label;
    metrics::MetricsRegistry::global().clear();
}

TEST(MetricsRegistryTest, SnapshotsRenderAsCaptured)
{
    metrics::MetricsRegistry reg;

    stats::Scalar cycles;
    stats::StatGroup machineGroup("viram");
    machineGroup.addScalar("cycles", &cycles, "total cycles");
    cycles += 123;
    reg.capture(machineGroup, "viram.ct");
    EXPECT_EQ(reg.size(), 1u);

    // A snapshot holds the values at capture time, not write time.
    cycles += 1;
    std::ostringstream os;
    reg.writeJson(os);
    const std::string doc = os.str();
    JsonValidator validator(doc);
    EXPECT_TRUE(validator.valid());
    EXPECT_NE(doc.find("\"viram.ct\""), std::string::npos);
    EXPECT_NE(doc.find("\"group\": \"viram\""), std::string::npos);
    EXPECT_NE(doc.find("\"cycles\": 123"), std::string::npos);

    reg.clear();
    EXPECT_EQ(reg.size(), 0u);
}

} // namespace
} // namespace triarch
