#include "hw_report.hh"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <set>
#include <sstream>

#include "sim/json.hh"
#include "sim/logging.hh"

namespace triarch::hw
{

namespace
{

std::nullopt_t
reject(std::string *error, std::string why)
{
    if (error)
        *error = std::move(why);
    return std::nullopt;
}

std::optional<stats::CycleCategory>
parseCategoryToken(const std::string &token)
{
    for (stats::CycleCategory c : stats::allCycleCategories()) {
        if (stats::cycleCategoryToken(c) == token)
            return c;
    }
    return std::nullopt;
}

} // namespace

std::optional<stats::CycleCategory>
componentCategory(const std::string &component)
{
    using C = stats::CycleCategory;
    // The fixed component -> category table: a verdict naming one of
    // these components is only consistent with the mapped category.
    static const std::map<std::string, C> table = {
        {"alu", C::Compute},        // PPC issue/execute
        {"vau", C::Compute},        // VIRAM vector arithmetic units
        {"cluster", C::Compute},    // Imagine arithmetic clusters
        {"tiles", C::Compute},      // Raw tile pipelines
        {"l1", C::CacheStall},      // PPC L1 data cache
        {"l2", C::CacheStall},      // PPC L2
        {"dcache", C::CacheStall},  // Raw tile data caches
        {"tlb", C::CacheStall},     // VIRAM TLB
        {"dram", C::DramDma},       // DRAM banks / row machinery
        {"fsb", C::DramDma},        // PPC front-side bus
        {"dma", C::DramDma},        // Raw peripheral DMA ports
        {"vmu", C::DramDma},        // VIRAM vector memory unit
        {"stream", C::DramDma},     // Imagine memory streams
        {"mesh", C::NetworkSync},   // Raw static network / FIFOs
        {"network", C::NetworkSync},
        {"host", C::SetupReadback}, // host issue / readback
        {"scalar", C::SetupReadback},
    };
    auto it = table.find(component);
    if (it == table.end())
        return std::nullopt;
    return it->second;
}

stats::CycleCategory
dominantCategory(const stats::CycleBreakdown &b)
{
    stats::CycleCategory best = stats::CycleCategory::Compute;
    std::uint64_t bestCycles = 0;
    bool first = true;
    for (stats::CycleCategory c : stats::allCycleCategories()) {
        // Strict > keeps the first (highest-priority) category on
        // ties, matching the timeline resolution rule.
        if (first || b[c] > bestCycles) {
            best = c;
            bestCycles = b[c];
            first = false;
        }
    }
    return best;
}

std::string
fmt2(double v)
{
    // Hand-rolled fixed-point rendering: snprintf("%f") honors the
    // process locale's decimal separator, which would make verdict
    // strings environment-dependent.
    std::string out;
    if (v < 0) {
        out += '-';
        v = -v;
    }
    const auto hundredths =
        static_cast<std::uint64_t>(std::llround(v * 100.0));
    out += std::to_string(hundredths / 100);
    out += '.';
    out += static_cast<char>('0' + hundredths / 10 % 10);
    out += static_cast<char>('0' + hundredths % 10);
    return out;
}

// ----------------------------------------------------------------
// EpochSampler.
// ----------------------------------------------------------------

EpochSampler::EpochSampler(std::vector<std::string> channel_names)
    : names(std::move(channel_names)), slots(names.size())
{
    for (auto &s : slots)
        s.fill(0);
}

void
EpochSampler::grow()
{
    ++shift;
    for (auto &s : slots) {
        for (std::size_t i = 0; i < kEpochSlots / 2; ++i)
            s[i] = s[2 * i] + s[2 * i + 1];
        std::fill(s.begin() + kEpochSlots / 2, s.end(), 0);
    }
}

void
EpochSampler::reset()
{
    shift = 0;
    for (auto &s : slots)
        s.fill(0);
}

void
EpochSampler::addRangeSplit(std::size_t channel, Cycles start,
                            Cycles end)
{
    if (end <= start)
        return;
    fit(end - 1);
    auto &s = slots[channel];
    const std::size_t first = start >> shift;
    const std::size_t last = (end - 1) >> shift;
    for (std::size_t i = first; i <= last; ++i) {
        const Cycles lo =
            std::max<Cycles>(start, Cycles{i} << shift);
        const Cycles hi =
            std::min<Cycles>(end, Cycles{i + 1} << shift);
        s[i] += hi - lo;
    }
}

HwTimeline
EpochSampler::finalize(Cycles total_cycles)
{
    HwTimeline t;
    t.cycles = total_cycles;
    if (total_cycles == 0) {
        t.epochCycles = 1;
        for (const std::string &n : names)
            t.channels.push_back({n, {}});
        return t;
    }
    fit(total_cycles - 1);
    t.epochCycles = Cycles{1} << shift;
    const std::size_t epochs = static_cast<std::size_t>(
        (total_cycles + t.epochCycles - 1) >> shift);
    for (std::size_t ch = 0; ch < names.size(); ++ch) {
        EpochChannel channel;
        channel.name = names[ch];
        channel.counts.assign(slots[ch].begin(),
                              slots[ch].begin() + epochs);
        // Sub-cycle rounding on fractional-clock machines can leave
        // events one slot past ceil(total / len); conserve them.
        for (std::size_t i = epochs; i < kEpochSlots; ++i)
            channel.counts.back() += slots[ch][i];
        t.channels.push_back(std::move(channel));
    }
    return t;
}

// ----------------------------------------------------------------
// triarch.hw.v1 writer.
// ----------------------------------------------------------------

namespace
{

void
writeCell(json::Writer &w, const HwCell &cell)
{
    w.beginObject();
    w.member("machine", cell.machine);
    w.member("kernel", cell.kernel);
    w.member("cycles", cell.cycles);

    w.key("breakdown").beginObject(json::Writer::Style::Compact);
    for (stats::CycleCategory c : stats::allCycleCategories())
        w.member(stats::cycleCategoryToken(c), cell.breakdown[c]);
    w.endObject();

    w.key("metrics").beginObject(json::Writer::Style::Compact);
    for (const HwMetric &m : cell.metrics) {
        w.key(m.name).beginObject();
        w.member("value", m.value);
        w.member("rate", m.rate);
        w.endObject();
    }
    w.endObject();

    w.key("verdict").beginObject(json::Writer::Style::Compact);
    w.member("component", cell.verdict.component);
    w.member("category",
             stats::cycleCategoryToken(cell.verdict.category));
    w.member("detail", cell.verdict.detail);
    w.endObject();

    w.key("timeline").beginObject();
    w.member("cycles", cell.timeline.cycles);
    w.member("epoch_cycles", cell.timeline.epochCycles);
    w.key("channels").beginObject();
    for (const EpochChannel &ch : cell.timeline.channels) {
        w.key(ch.name).beginArray(json::Writer::Style::Compact);
        for (std::uint64_t v : ch.counts)
            w.value(v);
        w.endArray();
    }
    w.endObject();
    w.endObject();

    w.endObject();
}

} // namespace

void
writeHwReport(std::ostream &os, const HwReport &report)
{
    json::Writer w(os);
    w.beginObject();
    w.member("schema", "triarch.hw.v1");
    if (!report.configHash.empty())
        w.member("config_hash", report.configHash);
    w.member("epoch_slots", kEpochSlots);
    w.key("cells").beginArray();
    for (const HwCell &cell : report.cells)
        writeCell(w, cell);
    w.endArray();
    w.endObject();
    w.finish();
    os << "\n";
}

std::string
renderHwReport(const HwReport &report)
{
    std::ostringstream os;
    writeHwReport(os, report);
    return os.str();
}

// ----------------------------------------------------------------
// triarch.hw.v1 parser + validator.
// ----------------------------------------------------------------

namespace
{

bool
parseTimeline(const json::Value &v, HwTimeline &out,
              const std::string &where, std::string *error)
{
    if (!v.isObject()) {
        reject(error, where + ": timeline is not an object");
        return false;
    }
    const json::Value *cycles = v.field("cycles");
    if (!cycles || !cycles->asU64(out.cycles)) {
        reject(error, where + ": timeline has no integer 'cycles'");
        return false;
    }
    const json::Value *epochCycles = v.field("epoch_cycles");
    if (!epochCycles || !epochCycles->asU64(out.epochCycles) ||
        out.epochCycles == 0 ||
        (out.epochCycles & (out.epochCycles - 1)) != 0) {
        reject(error, where + ": timeline 'epoch_cycles' must be a "
                              "power of two");
        return false;
    }
    const json::Value *channels = v.field("channels");
    if (!channels || !channels->isObject()) {
        reject(error, where + ": timeline has no 'channels' object");
        return false;
    }
    const std::size_t epochs =
        out.cycles == 0
            ? 0
            : static_cast<std::size_t>(
                  (out.cycles + out.epochCycles - 1) / out.epochCycles);
    if (epochs > kEpochSlots) {
        reject(error, where + ": epoch_cycles " +
                          std::to_string(out.epochCycles) +
                          " yields " + std::to_string(epochs) +
                          " epochs (max " +
                          std::to_string(kEpochSlots) + ")");
        return false;
    }
    std::set<std::string> seen;
    for (const auto &[name, counts] : channels->fields) {
        if (name.empty() || !seen.insert(name).second) {
            reject(error,
                   where + ": empty or duplicate channel name");
            return false;
        }
        if (!counts.isArray()) {
            reject(error, where + ": channel '" + name +
                              "' is not an array");
            return false;
        }
        if (counts.items.size() != epochs) {
            reject(error,
                   where + ": channel '" + name + "' has " +
                       std::to_string(counts.items.size()) +
                       " epochs, expected " + std::to_string(epochs));
            return false;
        }
        EpochChannel channel;
        channel.name = name;
        for (const json::Value &item : counts.items) {
            std::uint64_t n = 0;
            if (!item.asU64(n)) {
                reject(error, where + ": channel '" + name +
                                  "' has a non-integer count");
                return false;
            }
            channel.counts.push_back(n);
        }
        out.channels.push_back(std::move(channel));
    }
    return true;
}

bool
parseCell(const json::Value &v, HwCell &out, std::string *error)
{
    if (!v.isObject()) {
        reject(error, "cell is not an object");
        return false;
    }
    const json::Value *machine = v.field("machine");
    const json::Value *kernel = v.field("kernel");
    if (!machine || !machine->isString() || machine->text.empty() ||
        !kernel || !kernel->isString() || kernel->text.empty()) {
        reject(error, "cell lacks machine/kernel tokens");
        return false;
    }
    out.machine = machine->text;
    out.kernel = kernel->text;
    const std::string where = out.machine + "/" + out.kernel;

    const json::Value *cycles = v.field("cycles");
    if (!cycles || !cycles->asU64(out.cycles)) {
        reject(error, where + ": no integer 'cycles'");
        return false;
    }

    const json::Value *breakdown = v.field("breakdown");
    if (!breakdown || !breakdown->isObject()) {
        reject(error, where + ": no 'breakdown' object");
        return false;
    }
    for (stats::CycleCategory c : stats::allCycleCategories()) {
        const std::string &token = stats::cycleCategoryToken(c);
        const json::Value *cat = breakdown->field(token);
        std::uint64_t n = 0;
        if (!cat || !cat->asU64(n)) {
            reject(error, where + ": breakdown lacks integer '" +
                              token + "'");
            return false;
        }
        out.breakdown.cycles[static_cast<unsigned>(c)] = n;
    }
    out.breakdown.total = out.cycles;
    if (out.breakdown.categorySum() != out.cycles) {
        reject(error,
               where + ": breakdown sums to " +
                   std::to_string(out.breakdown.categorySum()) +
                   ", not the cell's " + std::to_string(out.cycles) +
                   " cycles");
        return false;
    }

    const json::Value *metrics = v.field("metrics");
    if (!metrics || !metrics->isObject()) {
        reject(error, where + ": no 'metrics' object");
        return false;
    }
    std::set<std::string> metricNames;
    for (const auto &[name, metric] : metrics->fields) {
        if (name.empty() || !metricNames.insert(name).second) {
            reject(error, where + ": empty or duplicate metric name");
            return false;
        }
        HwMetric m;
        m.name = name;
        const json::Value *value =
            metric.isObject() ? metric.field("value") : nullptr;
        const json::Value *rate =
            metric.isObject() ? metric.field("rate") : nullptr;
        if (!value || !value->asDouble(m.value) || !rate ||
            !rate->isBool()) {
            reject(error, where + ": metric '" + name +
                              "' needs numeric 'value' and boolean "
                              "'rate'");
            return false;
        }
        m.rate = rate->boolean;
        if (!std::isfinite(m.value)) {
            reject(error,
                   where + ": metric '" + name + "' is not finite");
            return false;
        }
        if (m.rate && (m.value < 0.0 || m.value > 1.0)) {
            reject(error, where + ": rate '" + name + "' is " +
                              json::formatDouble(m.value) +
                              ", outside [0, 1]");
            return false;
        }
        out.metrics.push_back(std::move(m));
    }

    const json::Value *verdict = v.field("verdict");
    if (!verdict || !verdict->isObject()) {
        reject(error, where + ": no 'verdict' object");
        return false;
    }
    const json::Value *component = verdict->field("component");
    const json::Value *category = verdict->field("category");
    const json::Value *detail = verdict->field("detail");
    if (!component || !component->isString() || !category ||
        !category->isString() || !detail || !detail->isString()) {
        reject(error, where + ": verdict needs component/category/"
                              "detail strings");
        return false;
    }
    out.verdict.component = component->text;
    out.verdict.detail = detail->text;
    const auto cat = parseCategoryToken(category->text);
    if (!cat) {
        reject(error, where + ": unknown verdict category '" +
                          category->text + "'");
        return false;
    }
    out.verdict.category = *cat;

    // The cross-checks: the verdict must agree with the D9 cycle
    // partition, and the named component must be one that can
    // dominate that category.
    const stats::CycleCategory dominant =
        dominantCategory(out.breakdown);
    if (*cat != dominant) {
        reject(error,
               where + ": verdict category '" + category->text +
                   "' contradicts the dominant breakdown category '" +
                   stats::cycleCategoryToken(dominant) + "'");
        return false;
    }
    const auto componentCat = componentCategory(out.verdict.component);
    if (!componentCat) {
        reject(error, where + ": unknown verdict component '" +
                          out.verdict.component + "'");
        return false;
    }
    if (*componentCat != *cat) {
        reject(error,
               where + ": component '" + out.verdict.component +
                   "' belongs to category '" +
                   stats::cycleCategoryToken(*componentCat) +
                   "', not '" + category->text + "'");
        return false;
    }

    const json::Value *timeline = v.field("timeline");
    if (!timeline) {
        reject(error, where + ": no 'timeline' object");
        return false;
    }
    std::string timelineError;
    if (!parseTimeline(*timeline, out.timeline, where,
                       &timelineError)) {
        reject(error, timelineError);
        return false;
    }
    return true;
}

} // namespace

std::optional<HwReport>
parseHwReport(const std::string &text, std::string *error)
{
    std::string parseError;
    const auto root = json::parse(text, &parseError);
    if (!root)
        return reject(error, "JSON parse error: " + parseError);
    if (!root->isObject())
        return reject(error, "document root is not an object");

    const json::Value *schema = root->field("schema");
    if (!schema || !schema->isString())
        return reject(error, "document has no schema tag");
    if (schema->text != "triarch.hw.v1") {
        return reject(error, "unsupported schema '" + schema->text +
                                 "' (want triarch.hw.v1)");
    }

    HwReport report;
    if (const json::Value *hash = root->field("config_hash")) {
        if (!hash->isString())
            return reject(error, "config_hash is not a string");
        report.configHash = hash->text;
    }

    const json::Value *slots = root->field("epoch_slots");
    std::uint64_t slotCount = 0;
    if (!slots || !slots->asU64(slotCount) ||
        slotCount != kEpochSlots) {
        return reject(error, "epoch_slots must be " +
                                 std::to_string(kEpochSlots));
    }

    const json::Value *cells = root->field("cells");
    if (!cells || !cells->isArray())
        return reject(error, "document has no cells array");

    std::set<std::pair<std::string, std::string>> seen;
    for (const json::Value &cellValue : cells->items) {
        HwCell cell;
        std::string cellError;
        if (!parseCell(cellValue, cell, &cellError))
            return reject(error, cellError);
        if (!seen.emplace(cell.machine, cell.kernel).second) {
            return reject(error, "duplicate cell " + cell.machine +
                                     "/" + cell.kernel);
        }
        report.cells.push_back(std::move(cell));
    }
    return report;
}

std::optional<HwReport>
loadHwReportFile(const std::string &path, std::string *error)
{
    std::ifstream is(path);
    if (!is)
        return reject(error, path + ": cannot open for reading");
    std::ostringstream buffer;
    buffer << is.rdbuf();
    std::string nested;
    auto report = parseHwReport(buffer.str(), &nested);
    if (!report)
        return reject(error, path + ": " + nested);
    return report;
}

// ----------------------------------------------------------------
// HwRegistry.
// ----------------------------------------------------------------

void
HwRegistry::capture(HwCell cell)
{
    triarch_assert(!cell.machine.empty() && !cell.kernel.empty(),
                   "hw cell capture without machine/kernel tokens");
    const std::string label = cell.machine + "." + cell.kernel;
    std::lock_guard<std::mutex> lock(mu);
    cells.insert_or_assign(label, std::move(cell));
}

std::size_t
HwRegistry::size() const
{
    std::lock_guard<std::mutex> lock(mu);
    return cells.size();
}

void
HwRegistry::clear()
{
    std::lock_guard<std::mutex> lock(mu);
    cells.clear();
}

HwReport
HwRegistry::report(std::string config_hash) const
{
    HwReport out;
    out.configHash = std::move(config_hash);
    std::lock_guard<std::mutex> lock(mu);
    out.cells.reserve(cells.size());
    for (const auto &[label, cell] : cells)
        out.cells.push_back(cell);
    return out;
}

HwRegistry &
HwRegistry::global()
{
    static HwRegistry registry;
    return registry;
}

} // namespace triarch::hw
