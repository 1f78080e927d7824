/**
 * @file
 * The benchmark's own span recorder. Spans (name, layer, start, end,
 * parent, pass id, thread lane) are kept in memory while a traced run
 * executes and are written out as Chrome trace JSON only at exit.
 * Counts recorded next to the spans are tallied per pass, so ratios
 * such as host ns per simulated cycle are taken where the work
 * happens.
 *
 * A span's self time is its duration minus the part of its interval
 * covered by the union of its child spans; children may run on other
 * threads (cells on ParallelRunner workers adopt the open batch span
 * as their parent).
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

namespace perfbench
{

/** Monotonic nanoseconds (the steady clock every timing here uses). */
std::uint64_t nowNs();

struct Span
{
    std::string name;
    std::string layer;
    std::uint64_t startNs = 0;
    std::uint64_t endNs = 0;    //!< 0 while open
    std::uint32_t id = 0;       //!< 1-based; 0 means "no span"
    std::uint32_t parent = 0;
    std::uint32_t pass = 0;
    std::uint32_t lane = 0;
};

class SpanRecorder
{
  public:
    SpanRecorder();

    SpanRecorder(const SpanRecorder &) = delete;
    SpanRecorder &operator=(const SpanRecorder &) = delete;

    /** Spans and counts recorded from now on belong to @p pass. */
    void setPass(std::uint32_t pass);

    /** Open a span on the calling thread; its parent is the thread's
     *  innermost open span, else the adopted parent. */
    std::uint32_t open(const std::string &name, const std::string &layer);
    void close(std::uint32_t id);

    /** Parent for spans opened on threads with no open span (worker
     *  threads); 0 clears it. */
    void adopt(std::uint32_t parent);

    /** Add @p value to the current pass's count @p name. */
    void count(const std::string &name, std::uint64_t value);

    std::vector<Span> spans() const;

    /** Per-pass counts, keyed by pass then name. */
    std::map<std::uint32_t, std::map<std::string, std::uint64_t>>
    counts() const;

    /** Chrome trace-event JSON: one "X" event per span, timestamps in
     *  microseconds from the first span, pass and parent in args. */
    void writeChromeJson(std::ostream &os) const;

  private:
    mutable std::mutex mu;
    std::vector<Span> all;
    std::map<std::uint32_t, std::map<std::string, std::uint64_t>> tallies;
    std::map<std::thread::id, std::uint32_t> lanes;
    std::uint32_t pass = 0;
    std::uint32_t adopted = 0;
};

/** RAII span; a null recorder makes it a no-op. */
class SpanScope
{
  public:
    SpanScope(SpanRecorder *rec, const std::string &name,
              const std::string &layer)
        : rec(rec), id(rec ? rec->open(name, layer) : 0)
    {
    }

    ~SpanScope() { end(); }

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    std::uint32_t spanId() const { return id; }

    /** Close now instead of at destruction (idempotent). */
    void
    end()
    {
        if (rec && id) {
            rec->close(id);
            id = 0;
        }
    }

  private:
    SpanRecorder *rec;
    std::uint32_t id;
};

/** Where one pass's wall clock went. */
struct PassSplit
{
    std::uint64_t passNs = 0;
    /** Self time per layer, the pass root's own self time excluded. */
    std::map<std::string, std::uint64_t> selfNs;
    /** Pass time no child span covers. */
    std::uint64_t unattributedNs = 0;
    /** Total duration per span name. */
    std::map<std::string, std::uint64_t> byName;
};

/** Split every pass whose root span is named @p root. */
std::map<std::uint32_t, PassSplit>
splitPasses(const std::vector<Span> &spans, const std::string &root);

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
