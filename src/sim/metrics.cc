#include "metrics.hh"

#include <algorithm>
#include <fstream>

#include "sim/json.hh"
#include "sim/logging.hh"

namespace triarch::metrics
{

namespace
{

GroupSnapshot
snapshotOf(const stats::StatGroup &group)
{
    return {group.name(), group.scalarReadings(),
            group.averageReadings(), group.distributionReadings(),
            group.histogramReadings()};
}

void
writeGroup(json::Writer &w, const std::string &label,
           const GroupSnapshot &snap)
{
    w.beginObject();
    w.member("label", label);
    w.member("group", snap.group);

    w.key("scalars").beginObject(json::Writer::Style::Compact);
    for (const auto &s : snap.scalars)
        w.member(s.name, s.value);
    w.endObject();

    w.key("averages").beginObject(json::Writer::Style::Compact);
    for (const auto &a : snap.averages) {
        w.key(a.name).beginObject();
        w.member("mean", a.mean);
        w.member("samples", a.samples);
        w.endObject();
    }
    w.endObject();

    w.key("distributions").beginObject(json::Writer::Style::Compact);
    for (const auto &d : snap.distributions) {
        w.key(d.name).beginObject();
        w.member("low", d.low);
        w.member("high", d.high);
        w.member("mean", d.mean);
        w.member("samples", d.samples);
        w.member("under", d.under);
        w.member("over", d.over);
        w.key("buckets").beginArray();
        for (std::uint64_t b : d.buckets)
            w.value(b);
        w.endArray();
        w.endObject();
    }
    w.endObject();

    // Host-time histograms carry wall-clock samples, so the key is
    // emitted only when something was recorded: a profiling-off run
    // renders this group byte-identically to the pre-host repo.
    if (!snap.histograms.empty()) {
        w.key("histograms").beginObject(json::Writer::Style::Compact);
        for (const auto &h : snap.histograms) {
            w.key(h.name).beginObject();
            w.member("count", h.count);
            w.member("sum", h.sum);
            w.member("min", h.min);
            w.member("max", h.max);
            w.member("median", h.median);
            w.member("p95", h.p95);
            w.key("buckets").beginArray();
            for (const auto &[index, bucket_count] : h.buckets) {
                w.beginArray();
                w.value(index);
                w.value(bucket_count);
                w.endArray();
            }
            w.endArray();
            w.endObject();
        }
        w.endObject();
    }

    w.endObject();
}

} // namespace

void
MetricsRegistry::registerLive(const stats::StatGroup *group)
{
    triarch_assert(group != nullptr, "null live stat group");
    std::lock_guard<std::mutex> lock(mu);
    if (std::find(live.begin(), live.end(), group) == live.end())
        live.push_back(group);
}

void
MetricsRegistry::unregisterLive(const stats::StatGroup *group)
{
    std::lock_guard<std::mutex> lock(mu);
    live.erase(std::remove(live.begin(), live.end(), group),
               live.end());
}

void
MetricsRegistry::capture(const stats::StatGroup &group,
                         const std::string &label)
{
    GroupSnapshot snap = snapshotOf(group);
    std::lock_guard<std::mutex> lock(mu);
    snapshots.insert_or_assign(label, std::move(snap));
}

std::size_t
MetricsRegistry::size() const
{
    std::lock_guard<std::mutex> lock(mu);
    return snapshots.size() + live.size();
}

void
MetricsRegistry::clear()
{
    std::lock_guard<std::mutex> lock(mu);
    snapshots.clear();
    live.clear();
}

void
MetricsRegistry::writeJson(std::ostream &os) const
{
    // Merge live groups (read now) into the snapshot map so the
    // document comes out in one label-sorted sweep regardless of
    // registration order.
    std::map<std::string, GroupSnapshot> merged;
    {
        std::lock_guard<std::mutex> lock(mu);
        merged = snapshots;
        for (const stats::StatGroup *g : live)
            merged.insert_or_assign(g->name(), snapshotOf(*g));
    }

    json::Writer w(os);
    w.beginObject();
    w.member("schema", "triarch.stats.v1");
    w.key("groups").beginArray();
    for (const auto &[label, snap] : merged)
        writeGroup(w, label, snap);
    w.endArray();
    w.endObject();
    w.finish();
    os << "\n";
}

void
MetricsRegistry::writeJsonFile(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        triarch_fatal("cannot open '", path, "' for writing");
    writeJson(os);
    if (!os.good())
        triarch_fatal("failed writing stats JSON to '", path, "'");
}

MetricsRegistry &
MetricsRegistry::global()
{
    static MetricsRegistry registry;
    return registry;
}

} // namespace triarch::metrics
