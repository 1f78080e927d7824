#include "study_json.hh"

#include <sstream>

#include "study/machine_info.hh"

namespace triarch::study
{

namespace
{

using json::Value;
using json::Writer;

/** Set *error (once) and return false. */
bool
reject(std::string *error, const std::string &why)
{
    if (error && error->empty())
        *error = why;
    return false;
}

} // namespace

std::string
studyConfigHashHex(const StudyConfig &cfg)
{
    std::ostringstream os;
    os << std::hex << studyConfigHash(cfg);
    return os.str();
}

void
writeStudyConfig(Writer &w, const StudyConfig &cfg)
{
    w.beginObject();
    w.member("matrix_size", cfg.matrixSize);
    w.member("seed", cfg.seed);
    w.key("cslc").beginObject(Writer::Style::Compact);
    w.member("main_channels", cfg.cslc.mainChannels);
    w.member("aux_channels", cfg.cslc.auxChannels);
    w.member("samples", cfg.cslc.samples);
    w.member("sub_bands", cfg.cslc.subBands);
    w.member("sub_band_len", cfg.cslc.subBandLen);
    w.member("sub_band_stride", cfg.cslc.subBandStride);
    w.endObject();
    w.key("beam").beginObject(Writer::Style::Compact);
    w.member("elements", cfg.beam.elements);
    w.member("directions", cfg.beam.directions);
    w.member("dwells", cfg.beam.dwells);
    w.member("shift", cfg.beam.shift);
    w.endObject();
    w.key("jammer_bins").beginArray(Writer::Style::Compact);
    for (unsigned bin : cfg.jammerBins)
        w.value(bin);
    w.endArray();
    w.member("hash", studyConfigHashHex(cfg));
    w.endObject();
}

void
writeCycleBreakdown(Writer &w, const stats::CycleBreakdown &breakdown)
{
    w.beginObject(Writer::Style::Compact);
    for (const auto cat : stats::allCycleCategories())
        w.member(stats::cycleCategoryToken(cat), breakdown[cat]);
    w.endObject();
}

void
writeRunResult(Writer &w, const RunResult &result)
{
    w.beginObject(Writer::Style::Compact);
    w.member("machine", machineToken(result.machine));
    w.member("kernel", kernelToken(result.kernel));
    w.member("cycles", result.cycles);
    w.member("validated", result.validated);
    if (result.measuredUnbalanced)
        w.member("measured_unbalanced", *result.measuredUnbalanced);
    w.key("breakdown");
    writeCycleBreakdown(w, result.breakdown);
    w.key("notes").beginObject(Writer::Style::Compact);
    for (const auto &[name, value] : result.notes)
        w.member(name, value);
    w.endObject();
    w.endObject();
}

bool
parseRunResult(const Value &v, RunResult *result, std::string *error)
{
    if (!v.isObject())
        return reject(error, "result entry is not an object");

    RunResult out;

    const Value *machine = v.field("machine");
    if (!machine || !machine->isString())
        return reject(error, "result missing machine token");
    const auto mid = parseMachineToken(machine->text);
    if (!mid) {
        return reject(error,
                      "unknown machine token '" + machine->text + "'");
    }
    out.machine = *mid;

    const Value *kernel = v.field("kernel");
    if (!kernel || !kernel->isString())
        return reject(error, "result missing kernel token");
    const auto kid = parseKernelToken(kernel->text);
    if (!kid) {
        return reject(error,
                      "unknown kernel token '" + kernel->text + "'");
    }
    out.kernel = *kid;

    const std::string where = machine->text + "/" + kernel->text;

    const Value *cycles = v.field("cycles");
    if (!cycles || !cycles->asU64(out.cycles))
        return reject(error, where + ": bad cycles field");

    const Value *validated = v.field("validated");
    if (!validated || !validated->isBool())
        return reject(error, where + ": bad validated field");
    out.validated = validated->boolean;

    if (const Value *mu = v.field("measured_unbalanced")) {
        std::uint64_t value = 0;
        if (!mu->asU64(value))
            return reject(error, where + ": bad measured_unbalanced");
        out.measuredUnbalanced = value;
    }

    const Value *breakdown = v.field("breakdown");
    if (!breakdown || !breakdown->isObject())
        return reject(error, where + ": missing breakdown object");
    for (const auto cat : stats::allCycleCategories()) {
        const Value *c =
            breakdown->field(stats::cycleCategoryToken(cat));
        std::uint64_t value = 0;
        if (!c || !c->asU64(value)) {
            return reject(error,
                          where + ": breakdown missing category '"
                              + stats::cycleCategoryToken(cat) + "'");
        }
        out.breakdown.cycles[static_cast<unsigned>(cat)] = value;
    }
    out.breakdown.total = out.cycles;
    if (out.breakdown.categorySum() != out.cycles) {
        return reject(error,
                      where + ": breakdown sums to "
                          + std::to_string(out.breakdown.categorySum())
                          + " but cycles is "
                          + std::to_string(out.cycles));
    }

    if (const Value *notes = v.field("notes")) {
        if (!notes->isObject())
            return reject(error, where + ": notes is not an object");
        for (const auto &[name, value] : notes->fields) {
            double d = 0.0;
            if (!value.asDouble(d))
                return reject(error, where + ": bad note '" + name + "'");
            out.notes.emplace_back(name, d);
        }
    }

    *result = std::move(out);
    return true;
}

} // namespace triarch::study
