#include "spans.hh"

#include <algorithm>
#include <chrono>

#include "sim/json.hh"

namespace perfbench
{

namespace
{

/** The calling thread's open spans, innermost last. */
thread_local std::vector<std::uint32_t> openStack;

} // namespace

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

SpanRecorder::SpanRecorder() { all.reserve(1 << 14); }

void
SpanRecorder::setPass(std::uint32_t p)
{
    std::lock_guard<std::mutex> lock(mu);
    pass = p;
}

std::uint32_t
SpanRecorder::open(const std::string &name, const std::string &layer)
{
    const std::uint64_t start = nowNs();
    std::lock_guard<std::mutex> lock(mu);
    Span s;
    s.name = name;
    s.layer = layer;
    s.startNs = start;
    s.id = static_cast<std::uint32_t>(all.size() + 1);
    s.parent = openStack.empty() ? adopted : openStack.back();
    s.pass = pass;
    auto [it, inserted] = lanes.try_emplace(
        std::this_thread::get_id(),
        static_cast<std::uint32_t>(lanes.size()));
    (void)inserted;
    s.lane = it->second;
    all.push_back(std::move(s));
    openStack.push_back(all.back().id);
    return all.back().id;
}

void
SpanRecorder::close(std::uint32_t id)
{
    const std::uint64_t end = nowNs();
    std::lock_guard<std::mutex> lock(mu);
    all[id - 1].endNs = end;
    // Spans close innermost first; tolerate a scope ended early.
    auto it = std::find(openStack.rbegin(), openStack.rend(), id);
    if (it != openStack.rend())
        openStack.erase(std::next(it).base());
}

void
SpanRecorder::adopt(std::uint32_t parent)
{
    std::lock_guard<std::mutex> lock(mu);
    adopted = parent;
}

void
SpanRecorder::count(const std::string &name, std::uint64_t value)
{
    std::lock_guard<std::mutex> lock(mu);
    tallies[pass][name] += value;
}

std::vector<Span>
SpanRecorder::spans() const
{
    std::lock_guard<std::mutex> lock(mu);
    return all;
}

std::map<std::uint32_t, std::map<std::string, std::uint64_t>>
SpanRecorder::counts() const
{
    std::lock_guard<std::mutex> lock(mu);
    return tallies;
}

void
SpanRecorder::writeChromeJson(std::ostream &os) const
{
    std::lock_guard<std::mutex> lock(mu);
    const std::uint64_t epoch = all.empty() ? 0 : all.front().startNs;
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    bool first = true;
    for (const auto &[thread, lane] : lanes) {
        (void)thread;
        os << (first ? "" : ",\n")
           << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":"
           << lane << ",\"args\":{\"name\":\""
           << (lane == 0 ? "main" : "worker-" + std::to_string(lane))
           << "\"}}";
        first = false;
    }
    for (const Span &s : all) {
        const std::uint64_t end = s.endNs ? s.endNs : s.startNs;
        os << (first ? "" : ",\n") << "{\"name\":\""
           << triarch::json::escape(s.name) << "\",\"cat\":\""
           << triarch::json::escape(s.layer)
           << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.lane
           << ",\"ts\":"
           << triarch::json::formatDouble(
                  static_cast<double>(s.startNs - epoch) / 1e3)
           << ",\"dur\":"
           << triarch::json::formatDouble(
                  static_cast<double>(end - s.startNs) / 1e3)
           << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
           << ",\"pass\":" << s.pass << "}}";
        first = false;
    }
    os << "\n]}\n";
}

std::map<std::uint32_t, PassSplit>
splitPasses(const std::vector<Span> &spans, const std::string &root)
{
    std::vector<std::vector<std::uint32_t>> children(spans.size() + 1);
    for (const Span &s : spans) {
        if (s.parent)
            children[s.parent].push_back(s.id);
    }
    // Length of [start, end) covered by the union of the children.
    auto covered = [&](const Span &s) {
        std::vector<std::pair<std::uint64_t, std::uint64_t>> iv;
        for (std::uint32_t c : children[s.id]) {
            const Span &k = spans[c - 1];
            const std::uint64_t lo = std::max(k.startNs, s.startNs);
            const std::uint64_t hi = std::min(k.endNs, s.endNs);
            if (hi > lo)
                iv.emplace_back(lo, hi);
        }
        std::sort(iv.begin(), iv.end());
        std::uint64_t total = 0, curLo = 0, curHi = 0;
        for (const auto &[lo, hi] : iv) {
            if (lo > curHi) {
                total += curHi - curLo;
                curLo = lo;
                curHi = hi;
            } else {
                curHi = std::max(curHi, hi);
            }
        }
        return total + (curHi - curLo);
    };

    std::map<std::uint32_t, PassSplit> out;
    for (const Span &s : spans) {
        if (!s.endNs)
            continue;
        const std::uint64_t dur = s.endNs - s.startNs;
        const std::uint64_t self = dur - std::min(dur, covered(s));
        PassSplit &p = out[s.pass];
        if (s.name == root && s.parent == 0) {
            p.passNs = dur;
            p.unattributedNs = self;
        } else {
            p.selfNs[s.layer] += self;
        }
        p.byName[s.name] += dur;
    }
    std::erase_if(out, [](const auto &kv) { return kv.second.passNs == 0; });
    return out;
}

} // namespace perfbench
