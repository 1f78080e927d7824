#include "result_sink.hh"

#include <fstream>

#include "sim/json.hh"
#include "sim/logging.hh"
#include "study/study_json.hh"

namespace triarch::study
{

ResultSink::ResultSink(StudyConfig sink_config)
    : cfg(std::move(sink_config))
{
}

void
ResultSink::add(const RunResult &result)
{
    std::lock_guard<std::mutex> lock(mu);
    results.push_back(result);
}

void
ResultSink::add(const std::vector<RunResult> &batch)
{
    std::lock_guard<std::mutex> lock(mu);
    results.insert(results.end(), batch.begin(), batch.end());
}

void
ResultSink::metadata(const std::string &meta_key,
                     const std::string &value)
{
    std::lock_guard<std::mutex> lock(mu);
    meta.emplace_back(meta_key, value);
}

std::size_t
ResultSink::size() const
{
    std::lock_guard<std::mutex> lock(mu);
    return results.size();
}

void
ResultSink::writeJson(std::ostream &os) const
{
    std::lock_guard<std::mutex> lock(mu);

    json::Writer w(os);
    w.beginObject();
    w.member("schema", "triarch.results.v1");

    w.key("config");
    writeStudyConfig(w, cfg);

    w.key("metadata").beginObject(json::Writer::Style::Compact);
    for (const auto &[name, value] : meta)
        w.member(name, value);
    w.endObject();

    w.key("results").beginArray();
    for (const RunResult &r : results) {
        // The RunResult fields plus the display conveniences (names,
        // derived milliseconds) trajectory-tracking scripts read.
        w.beginObject(json::Writer::Style::Compact);
        w.member("machine", machineName(r.machine));
        w.member("machine_id", machineToken(r.machine));
        w.member("kernel", kernelName(r.kernel));
        w.member("kernel_id", kernelToken(r.kernel));
        w.member("cycles", r.cycles);
        w.member("milliseconds", r.milliseconds());
        w.member("validated", r.validated);
        if (r.measuredUnbalanced)
            w.member("measured_unbalanced", *r.measuredUnbalanced);
        w.key("breakdown");
        writeCycleBreakdown(w, r.breakdown);
        w.key("notes").beginObject(json::Writer::Style::Compact);
        for (const auto &[name, value] : r.notes)
            w.member(name, value);
        w.endObject();
        w.endObject();
    }
    w.endArray();

    w.endObject();
    w.finish();
    os << "\n";
}

void
ResultSink::writeJsonFile(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        triarch_fatal("cannot open '", path, "' for writing");
    writeJson(os);
    if (!os.good())
        triarch_fatal("failed writing results JSON to '", path, "'");
}

} // namespace triarch::study
