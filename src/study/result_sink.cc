#include "result_sink.hh"

#include <fstream>
#include <sstream>

#include "sim/json.hh"
#include "sim/logging.hh"
#include "study/machine_info.hh"
#include "study/study_json.hh"

namespace triarch::study
{

const std::string &
resultsSchema()
{
    static const std::string schema = "triarch.results.v2";
    return schema;
}

const HostCellTiming *
HostSection::find(MachineId machine, KernelId kernel) const
{
    for (const HostCellTiming &cell : cells) {
        if (cell.machine == machine && cell.kernel == kernel)
            return &cell;
    }
    return nullptr;
}

const RunResult *
ResultsDocument::find(MachineId machine, KernelId kernel) const
{
    for (const RunResult &r : results) {
        if (r.machine == machine && r.kernel == kernel)
            return &r;
    }
    return nullptr;
}

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

void
ResultSink::host(HostSection section)
{
    std::lock_guard<std::mutex> lock(mu);
    hostBlock = std::move(section);
}

std::size_t
ResultSink::size() const
{
    std::lock_guard<std::mutex> lock(mu);
    return results.size();
}

ResultsDocument
ResultSink::document() const
{
    std::lock_guard<std::mutex> lock(mu);
    return {studyConfigHashHex(cfg), cfg.seed, results, hostBlock};
}

void
ResultSink::writeJson(std::ostream &os) const
{
    std::lock_guard<std::mutex> lock(mu);

    json::Writer w(os);
    w.beginObject();
    w.member("schema", resultsSchema());

    w.key("config");
    writeStudyConfig(w, cfg);

    w.key("metadata").beginObject(json::Writer::Style::Compact);
    for (const auto &[name, value] : meta)
        w.member(name, value);
    w.endObject();

    w.key("results").beginArray();
    for (const RunResult &r : results) {
        triarch_assert(r.breakdown.total == r.cycles
                           && r.breakdown.categorySum() == r.cycles,
                       "breakdown does not partition the cycle count "
                       "for ", machineToken(r.machine), "/",
                       kernelToken(r.kernel));
        writeRunResult(w, r);
    }
    w.endArray();

    if (hostBlock) {
        w.key("host").beginObject();
        w.member("warmup", hostBlock->warmup);
        w.member("repetitions", hostBlock->repetitions);
        w.member("pinned", hostBlock->pinned);
        w.member("cells_per_sec", hostBlock->cellsPerSec);
        w.key("cells").beginArray();
        for (const HostCellTiming &cell : hostBlock->cells) {
            w.beginObject(json::Writer::Style::Compact);
            w.member("machine", machineToken(cell.machine));
            w.member("kernel", kernelToken(cell.kernel));
            w.member("median_ns", cell.medianNs);
            w.member("p95_ns", cell.p95Ns);
            w.member("min_ns", cell.minNs);
            w.member("stddev_ns", cell.stddevNs);
            w.endObject();
        }
        w.endArray();
        w.endObject();
    }

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

namespace
{

/** Set *error (once) and return nullopt. */
std::nullopt_t
reject(std::string *error, const std::string &why)
{
    if (error && error->empty())
        *error = why;
    return std::nullopt;
}

/** Parse the "host" block (nullopt + *error on a violation). */
std::optional<HostSection>
parseHostSection(const json::Value &host, std::string *error)
{
    if (!host.isObject())
        return reject(error, "host block is not an object");
    HostSection section;
    const json::Value *warmup = host.field("warmup");
    if (!warmup || !warmup->asU64(section.warmup))
        return reject(error, "host: missing or non-integer warmup");
    const json::Value *reps = host.field("repetitions");
    if (!reps || !reps->asU64(section.repetitions))
        return reject(error,
                      "host: missing or non-integer repetitions");
    const json::Value *pinned = host.field("pinned");
    if (!pinned || !pinned->isBool())
        return reject(error, "host: missing or non-bool pinned");
    section.pinned = pinned->boolean;
    const json::Value *rate = host.field("cells_per_sec");
    if (!rate || !rate->asDouble(section.cellsPerSec))
        return reject(error,
                      "host: missing or non-number cells_per_sec");
    const json::Value *cells = host.field("cells");
    if (!cells || !cells->isArray())
        return reject(error, "host: missing cells array");
    for (const json::Value &entry : cells->items) {
        if (!entry.isObject())
            return reject(error, "host cell entry is not an object");
        const json::Value *machine = entry.field("machine");
        const json::Value *kernel = entry.field("kernel");
        if (!machine || !machine->isString() || !kernel
            || !kernel->isString()) {
            return reject(error, "host cell: missing machine/kernel");
        }
        const auto mid = parseMachineToken(machine->text);
        const auto kid = parseKernelToken(kernel->text);
        if (!mid || !kid) {
            return reject(error, "host cell: unknown pair "
                                     + machine->text + "/"
                                     + kernel->text);
        }
        HostCellTiming timing;
        timing.machine = *mid;
        timing.kernel = *kid;
        const auto number = [&entry](const char *field_name,
                                     double &value) {
            const json::Value *v = entry.field(field_name);
            return v && v->asDouble(value);
        };
        if (!number("median_ns", timing.medianNs)
            || !number("p95_ns", timing.p95Ns)
            || !number("min_ns", timing.minNs)
            || !number("stddev_ns", timing.stddevNs)) {
            return reject(error, "host cell: missing timing fields");
        }
        if (section.find(timing.machine, timing.kernel)) {
            return reject(error, "host: duplicate cell "
                                     + machine->text + "/"
                                     + kernel->text);
        }
        section.cells.push_back(timing);
    }
    return section;
}

} // namespace

std::optional<ResultsDocument>
parseResultsJson(const std::string &text, std::string *error)
{
    if (error)
        error->clear();
    const auto root = json::parse(text, error);
    if (!root)
        return std::nullopt;
    if (!root->isObject())
        return reject(error, "document root is not an object");

    const json::Value *schema = root->field("schema");
    if (!schema || !schema->isString())
        return reject(error, "missing schema field");
    if (schema->text != resultsSchema()) {
        return reject(error, "unsupported schema '" + schema->text
                                 + "' (want " + resultsSchema() + ")");
    }

    ResultsDocument doc;
    const json::Value *config = root->field("config");
    if (!config || !config->isObject())
        return reject(error, "missing config object");
    const json::Value *hash = config->field("hash");
    if (!hash || !hash->isString())
        return reject(error, "config: missing hash field");
    doc.configHash = hash->text;
    const json::Value *seed = config->field("seed");
    if (!seed || !seed->asU64(doc.seed))
        return reject(error, "config: missing or non-integer seed");

    const json::Value *results = root->field("results");
    if (!results || !results->isArray())
        return reject(error, "missing results array");
    for (const json::Value &entry : results->items) {
        RunResult parsed;
        if (!parseRunResult(entry, &parsed, error))
            return std::nullopt;
        if (doc.find(parsed.machine, parsed.kernel)) {
            return reject(error, "duplicate cell "
                                     + machineToken(parsed.machine) + "/"
                                     + kernelToken(parsed.kernel));
        }
        doc.results.push_back(std::move(parsed));
    }

    if (const json::Value *host = root->field("host")) {
        doc.host = parseHostSection(*host, error);
        if (!doc.host)
            return std::nullopt;
    }
    return doc;
}

std::optional<ResultsDocument>
loadResultsFile(const std::string &path, std::string *error)
{
    std::ifstream is(path);
    if (!is) {
        if (error)
            *error = "cannot open '" + path + "' for reading";
        return std::nullopt;
    }
    std::ostringstream text;
    text << is.rdbuf();
    auto doc = parseResultsJson(text.str(), error);
    if (!doc && error && !error->empty())
        *error = path + ": " + *error;
    return doc;
}

} // namespace triarch::study
