#include "bench_report.hh"

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <sstream>

#include "sim/json.hh"
#include "sim/logging.hh"
#include "study/cli_options.hh"
#include "study/machine_info.hh"
#include "study/study_json.hh"

namespace triarch::study
{

const std::string &
benchSchema()
{
    static const std::string schema = "triarch.bench.v1";
    return schema;
}

double
paperTable3Kcycles(MachineId machine, KernelId kernel)
{
    // Table 3 of the paper, in 10^3 cycles; rows follow MachineId,
    // columns follow KernelId declaration order.
    static const double table[5][3] = {
        {34250, 29013, 730},    // PPC
        {29288, 4931, 364},     // Altivec
        {554, 424, 35},         // VIRAM
        {1439, 196, 87},        // Imagine
        {146, 357, 19},         // Raw
    };
    const unsigned m = static_cast<unsigned>(machine);
    const unsigned k = static_cast<unsigned>(kernel);
    triarch_assert(m < 5 && k < 3, "no Table 3 target for machine ", m,
                   " kernel ", k);
    return table[m][k];
}

const BenchCell *
BenchReport::find(MachineId machine, KernelId kernel) const
{
    for (const BenchCell &cell : cells) {
        if (cell.machine == machine && cell.kernel == kernel)
            return &cell;
    }
    return nullptr;
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

BenchReport
buildBenchReport(const StudyConfig &cfg,
                 const std::vector<RunResult> &results)
{
    BenchReport report;
    report.schema = benchSchema();
    report.configHash = studyConfigHashHex(cfg);
    report.seed = cfg.seed;

    for (const RunResult &r : results) {
        triarch_assert(r.breakdown.total == r.cycles
                           && r.breakdown.categorySum() == r.cycles,
                       "breakdown does not partition the cycle count "
                       "for ", machineToken(r.machine), "/",
                       kernelToken(r.kernel));
        BenchCell cell;
        cell.machine = r.machine;
        cell.kernel = r.kernel;
        cell.cycles = r.cycles;
        cell.measuredUnbalanced = r.measuredUnbalanced;
        cell.validated = r.validated;
        cell.breakdown = r.breakdown;
        report.cells.push_back(cell);
    }

    std::sort(report.cells.begin(), report.cells.end(),
              [](const BenchCell &a, const BenchCell &b) {
                  if (a.machine != b.machine)
                      return a.machine < b.machine;
                  return a.kernel < b.kernel;
              });
    return report;
}

void
writeBenchReportJson(const BenchReport &report, std::ostream &os)
{
    json::Writer w(os);
    w.beginObject();
    w.member("schema", report.schema);
    w.member("config_hash", report.configHash);
    w.member("seed", report.seed);
    w.key("cells").beginArray();
    for (const BenchCell &cell : report.cells) {
        w.beginObject(json::Writer::Style::Compact);
        w.member("machine", machineToken(cell.machine));
        w.member("kernel", kernelToken(cell.kernel));
        w.member("cycles", cell.cycles);
        w.member("validated", cell.validated);
        if (cell.measuredUnbalanced)
            w.member("measured_unbalanced", *cell.measuredUnbalanced);
        w.key("breakdown");
        writeCycleBreakdown(w, cell.breakdown);
        w.endObject();
    }
    w.endArray();
    if (report.host) {
        const HostSection &host = *report.host;
        w.key("host").beginObject();
        w.member("warmup", host.warmup);
        w.member("repetitions", host.repetitions);
        w.member("pinned", host.pinned);
        w.member("cells_per_sec", host.cellsPerSec);
        w.key("cells").beginArray();
        for (const HostCellTiming &cell : host.cells) {
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

namespace
{

/** Set *error (once) and return nullopt. */
std::optional<BenchReport>
reject(std::string *error, const std::string &why)
{
    if (error && error->empty())
        *error = why;
    return std::nullopt;
}

} // namespace

std::optional<BenchReport>
parseBenchReportJson(const std::string &text, std::string *error)
{
    if (error)
        error->clear();
    const auto root = json::parse(text, error);
    if (!root)
        return std::nullopt;
    if (!root->isObject())
        return reject(error, "document root is not an object");

    BenchReport report;
    const json::Value *schema = root->field("schema");
    if (!schema || !schema->isString())
        return reject(error, "missing schema field");
    if (schema->text != benchSchema()) {
        return reject(error, "unsupported schema '" + schema->text
                                 + "' (want " + benchSchema() + ")");
    }
    report.schema = schema->text;

    const json::Value *hash = root->field("config_hash");
    if (!hash || !hash->isString())
        return reject(error, "missing config_hash field");
    report.configHash = hash->text;

    const json::Value *seed = root->field("seed");
    if (!seed || !seed->asU64(report.seed))
        return reject(error, "missing or non-integer seed field");

    const json::Value *cells = root->field("cells");
    if (!cells || !cells->isArray())
        return reject(error, "missing cells array");

    for (const json::Value &entry : cells->items) {
        if (!entry.isObject())
            return reject(error, "cell entry is not an object");
        // A bench cell carries the same fields as a RunResult
        // minus the notes; parseRunResult validates tokens and the
        // breakdown partition in one place.
        RunResult parsed;
        if (!parseRunResult(entry, &parsed, error))
            return std::nullopt;

        if (report.find(parsed.machine, parsed.kernel)) {
            return reject(error, "duplicate cell "
                                     + machineToken(parsed.machine) + "/"
                                     + kernelToken(parsed.kernel));
        }

        BenchCell cell;
        cell.machine = parsed.machine;
        cell.kernel = parsed.kernel;
        cell.cycles = parsed.cycles;
        cell.measuredUnbalanced = parsed.measuredUnbalanced;
        cell.validated = parsed.validated;
        cell.breakdown = parsed.breakdown;
        report.cells.push_back(std::move(cell));
    }

    if (const json::Value *host = root->field("host")) {
        if (!host->isObject())
            return reject(error, "host section is not an object");
        HostSection section;
        const json::Value *warmup = host->field("warmup");
        if (!warmup || !warmup->asU64(section.warmup))
            return reject(error, "host: missing or non-integer warmup");
        const json::Value *reps = host->field("repetitions");
        if (!reps || !reps->asU64(section.repetitions))
            return reject(error,
                          "host: missing or non-integer repetitions");
        const json::Value *pinned = host->field("pinned");
        if (!pinned || !pinned->isBool())
            return reject(error, "host: missing or non-bool pinned");
        section.pinned = pinned->boolean;
        const json::Value *rate = host->field("cells_per_sec");
        if (!rate || !rate->asDouble(section.cellsPerSec))
            return reject(error,
                          "host: missing or non-number cells_per_sec");
        const json::Value *hostCells = host->field("cells");
        if (!hostCells || !hostCells->isArray())
            return reject(error, "host: missing cells array");
        for (const json::Value &entry : hostCells->items) {
            if (!entry.isObject())
                return reject(error,
                              "host cell entry is not an object");
            HostCellTiming timing;
            const json::Value *machine = entry.field("machine");
            const json::Value *kernel = entry.field("kernel");
            if (!machine || !machine->isString() || !kernel
                || !kernel->isString()) {
                return reject(error,
                              "host cell: missing machine/kernel");
            }
            const auto mid = parseMachineToken(machine->text);
            const auto kid = parseKernelToken(kernel->text);
            if (!mid || !kid) {
                return reject(error, "host cell: unknown pair "
                                         + machine->text + "/"
                                         + kernel->text);
            }
            timing.machine = *mid;
            timing.kernel = *kid;
            const auto number = [&entry](const char *field_name,
                                         double &out) {
                const json::Value *v = entry.field(field_name);
                return v && v->asDouble(out);
            };
            if (!number("median_ns", timing.medianNs)
                || !number("p95_ns", timing.p95Ns)
                || !number("min_ns", timing.minNs)
                || !number("stddev_ns", timing.stddevNs)) {
                return reject(error,
                              "host cell: missing timing fields");
            }
            if (section.find(timing.machine, timing.kernel)) {
                return reject(error, "host: duplicate cell "
                                         + machine->text + "/"
                                         + kernel->text);
            }
            section.cells.push_back(timing);
        }
        report.host = std::move(section);
    }
    return report;
}

std::optional<BenchReport>
loadBenchReportFile(const std::string &path, std::string *error)
{
    std::ifstream is(path);
    if (!is) {
        if (error)
            *error = "cannot open '" + path + "' for reading";
        return std::nullopt;
    }
    std::ostringstream text;
    text << is.rdbuf();
    auto report = parseBenchReportJson(text.str(), error);
    if (!report && error && !error->empty())
        *error = path + ": " + *error;
    return report;
}

namespace
{

std::string
cellName(const BenchCell &cell)
{
    return machineToken(cell.machine) + "/" + kernelToken(cell.kernel);
}

} // namespace

BenchDiffResult
diffBenchReports(const BenchReport &baseline, const BenchReport &fresh)
{
    BenchDiffResult result;
    auto failf = [&result](const std::string &line) {
        result.failures.push_back(line);
    };

    if (baseline.configHash != fresh.configHash) {
        failf("config hash mismatch: baseline " + baseline.configHash
              + " vs fresh " + fresh.configHash
              + " — the runs measured different workloads");
    }
    if (baseline.seed != fresh.seed) {
        failf("seed mismatch: baseline " + std::to_string(baseline.seed)
              + " vs fresh " + std::to_string(fresh.seed));
    }

    for (const BenchCell &cell : fresh.cells) {
        if (!baseline.find(cell.machine, cell.kernel))
            failf(cellName(cell) + ": not in the baseline");
    }

    for (const BenchCell &base : baseline.cells) {
        const BenchCell *cell = fresh.find(base.machine, base.kernel);
        if (!cell) {
            failf(cellName(base) + ": missing from the fresh report");
            continue;
        }
        ++result.cellsCompared;

        if (!cell->validated)
            failf(cellName(base) + ": output no longer validates");

        if (cell->cycles != base.cycles) {
            failf(cellName(base) + ": cycles "
                  + std::to_string(cell->cycles) + " drifted from "
                  + std::to_string(base.cycles));
        }
        for (const auto cat : stats::allCycleCategories()) {
            if (cell->breakdown[cat] != base.breakdown[cat]) {
                failf(cellName(base) + ": "
                      + stats::cycleCategoryToken(cat) + " "
                      + std::to_string(cell->breakdown[cat])
                      + " drifted from "
                      + std::to_string(base.breakdown[cat]));
            }
        }
        if (base.measuredUnbalanced.has_value()
            != cell->measuredUnbalanced.has_value()) {
            failf(cellName(base)
                  + ": measured_unbalanced presence changed");
        } else if (cell->measuredUnbalanced != base.measuredUnbalanced) {
            failf(cellName(base) + ": measured_unbalanced "
                  + std::to_string(*cell->measuredUnbalanced)
                  + " drifted from "
                  + std::to_string(*base.measuredUnbalanced));
        }
    }
    return result;
}

BenchDiffResult
diffHostSections(const BenchReport &baseline, const BenchReport &fresh,
                 double gate_ratio, std::vector<std::string> *advisory)
{
    BenchDiffResult result;
    const bool gated = gate_ratio > 0.0;
    const auto note = [advisory](const std::string &line) {
        if (advisory)
            advisory->push_back(line);
    };

    if (!baseline.host || !fresh.host) {
        const std::string which = !baseline.host && !fresh.host
                                      ? "either report"
                                      : (!baseline.host ? "the baseline"
                                                        : "the fresh "
                                                          "report");
        if (gated) {
            result.failures.push_back(
                "host gate requested but " + which
                + " has no host section");
        } else {
            note("host: no host section in " + which
                 + "; nothing to compare");
        }
        return result;
    }

    const HostSection &base = *baseline.host;
    const HostSection &next = *fresh.host;
    std::ostringstream header;
    header << "host: baseline " << base.cellsPerSec
           << " cells/sec vs fresh " << next.cellsPerSec
           << " cells/sec (" << next.repetitions << " reps)";
    note(header.str());

    for (const HostCellTiming &cell : base.cells) {
        const HostCellTiming *freshCell =
            next.find(cell.machine, cell.kernel);
        const std::string name = machineToken(cell.machine) + "/"
                                 + kernelToken(cell.kernel);
        if (!freshCell) {
            if (gated) {
                result.failures.push_back(
                    "host " + name + ": missing from the fresh report");
            } else {
                note("host " + name + ": missing from the fresh report");
            }
            continue;
        }
        ++result.cellsCompared;
        const double ratio =
            cell.medianNs > 0.0 ? freshCell->medianNs / cell.medianNs
                                : 0.0;
        std::ostringstream line;
        line << "host " << name << ": median "
             << freshCell->medianNs / 1e6 << " ms vs baseline "
             << cell.medianNs / 1e6 << " ms (" << std::setprecision(3)
             << ratio << "x)";
        note(line.str());
        if (gated && cell.medianNs > 0.0
            && freshCell->medianNs > cell.medianNs * gate_ratio) {
            std::ostringstream failure;
            failure << "host " << name << ": median "
                    << freshCell->medianNs << " ns exceeds baseline "
                    << cell.medianNs << " ns by more than the "
                    << gate_ratio << "x gate";
            result.failures.push_back(failure.str());
        }
    }
    return result;
}

BenchDiffResult
checkPaperTargets(const BenchReport &report, double factor)
{
    triarch_assert(factor >= 1.0, "paper-target factor must be >= 1");
    BenchDiffResult result;
    for (const BenchCell &cell : report.cells) {
        ++result.cellsCompared;
        const double paper =
            paperTable3Kcycles(cell.machine, cell.kernel) * 1000.0;
        const double ratio = static_cast<double>(cell.cycles) / paper;
        if (ratio < 1.0 / factor || ratio > factor) {
            std::ostringstream os;
            os << cellName(cell) << ": " << cell.cycles
               << " cycles is " << std::setprecision(3) << ratio
               << "x the paper's Table 3 value (" << paper
               << "), outside the " << factor << "x sanity band";
            result.failures.push_back(os.str());
        }
    }
    return result;
}

std::optional<int>
parseBenchDiffArgs(int argc, char **argv, BenchDiffArgs *args)
{
    CliOptions cli("compare benchmark measurements against a "
                   "committed triarch.bench.v1 baseline and the "
                   "paper's Table 3",
                   "bench_diff");
    cli.value("--baseline", "PATH", "committed baseline JSON (required)",
              [args](const std::string &v) {
                  args->baselinePath = v;
                  return 0;
              });
    cli.value("--report", "PATH",
              "diff this perf_report output instead of re-measuring",
              [args](const std::string &v) {
                  args->reportPath = v;
                  return 0;
              });
    cli.number("--seed", "N",
               "workload seed when re-measuring (default 11; must "
               "match the baseline)",
               std::numeric_limits<std::uint64_t>::max(),
               [args](std::uint64_t n) {
                   args->seed = n;
                   return 0;
               });
    cli.number("--threads", "N",
               "worker threads when re-measuring (0 = hardware "
               "concurrency)",
               std::numeric_limits<unsigned>::max(),
               [args](std::uint64_t n) {
                   args->threads = static_cast<unsigned>(n);
                   return 0;
               });
    cli.real("--paper-factor", "F",
             "sanity band around Table 3 (default 2.0; 0 disables)",
             [args](double f) {
                 args->paperFactor = f;
                 return 0;
             });
    cli.real("--host-gate", "R",
             "fail when a fresh host median exceeds baseline x R "
             "(advisory otherwise)",
             [&cli, args](double r) {
                 if (r <= 0.0) {
                     std::cerr << cli.prog()
                               << ": --host-gate wants a ratio > 0\n";
                     return 2;
                 }
                 args->hostGate = r;
                 return 0;
             });
    if (const auto rc = cli.parse(argc, argv))
        return rc;
    if (args->baselinePath.empty()) {
        std::cerr << cli.prog() << ": --baseline is required\n\n";
        cli.usage(std::cerr);
        return 2;
    }
    return std::nullopt;
}

} // namespace triarch::study
