#include "metrics.hh"

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
            group.averageReadings(), group.distributionReadings()};
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

    w.endObject();
}

} // namespace

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
    return snapshots.size();
}

void
MetricsRegistry::clear()
{
    std::lock_guard<std::mutex> lock(mu);
    snapshots.clear();
}

void
MetricsRegistry::writeJson(std::ostream &os) const
{
    std::lock_guard<std::mutex> lock(mu);
    json::Writer w(os);
    w.beginObject();
    w.member("schema", "triarch.stats.v1");
    w.key("groups").beginArray();
    for (const auto &[label, snap] : snapshots)
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
