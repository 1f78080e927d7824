/**
 * @file
 * perfbench_triarch: the benchmark driver. It drives triarch's public
 * entry points (MappingRegistry::builtin(), validateConfig,
 * ParallelRunner with an explicit ResultCache, the trace/stats/hw
 * writers) in a closed loop — each pass starts when the previous one
 * has finished — for --seconds, checks every cell it ran, and prints
 * its metrics; the last line of stdout is one JSON object:
 *
 *   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
 *
 * where attempted/failed count cells. --trace 0 reports the
 * end-to-end metrics; --trace 1 runs traced passes (cells split into
 * construct/run/validate/account/capture/destroy spans, see
 * traced_cells.hh) interleaved with untraced ones and reports the
 * per-layer metrics. See README.md for the metric definitions.
 */

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <thread>

#if defined(__linux__)
#include <sched.h>
#endif

#include "mem/mem_mode.hh"
#include "probe.hh"
#include "raw/config.hh"
#include "sim/host_clock.hh"
#include "sim/hw_report.hh"
#include "sim/json.hh"
#include "sim/metrics.hh"
#include "sim/rng.hh"
#include "sim/trace.hh"
#include "spans.hh"
#include "study/bench_report.hh"
#include "study/cli_options.hh"
#include "study/config_check.hh"
#include "study/parallel.hh"
#include "study/registry.hh"
#include "study/study_json.hh"
#include "traced_cells.hh"
#include "workloads.hh"

using namespace triarch;
using namespace triarch::study;
using namespace perfbench;

namespace
{

/** pass_ms_tail is the highest percentile with this many samples
 *  above it. */
constexpr std::size_t kTailBeyond = 10;
constexpr std::size_t kMinPasses = kTailBeyond + 1;
/** Traced runs alternate untraced/traced passes in pairs. */
constexpr std::size_t kMinTracedPairs = 5;
/** Probes that scale a set-up time (see SpeedProbe). */
constexpr unsigned kSetupProbes = 5;
constexpr const char *kExpectedSchema = "perfbench.expected.v1";

/** Set-up is timed from the first C++ static initializer, so work a
 *  library moves into static initialization still counts. */
struct ProcessStart
{
    std::uint64_t ns = nowNs();
};
__attribute__((init_priority(101))) const ProcessStart processStart;

struct Options
{
    Workload workload = Workload::Table3;
    bool haveWorkload = false;
    std::uint64_t seed = 1;
    std::uint64_t seconds = 0;
    bool trace = false;
    std::string outDir = ".bench_build/perfbench-out";
    std::string expectedPath = "perfbench/expected_table3.json";
    std::string writeExpected;
    bool setupOnly = false;
    std::vector<double> setupSamplesNs;
};

unsigned
cpusAvailable()
{
#if defined(__linux__)
    cpu_set_t set;
    CPU_ZERO(&set);
    if (::sched_getaffinity(0, sizeof(set), &set) == 0)
        return static_cast<unsigned>(CPU_COUNT(&set));
#endif
    return std::max(1u, std::thread::hardware_concurrency());
}

double
median(std::vector<double> v)
{
    return host::summarizeSamples(std::move(v)).medianNs;
}

/**
 * Host speed, sampled around and inside every measured pass. On a
 * shared host other tenants slow a pass by up to ~1.5x in spells of one
 * to a few seconds, and the spells can fill half a run. So each pass's
 * time is scaled to a fixed host speed: by the probe's reference time
 * over its median time in the samples taken during the pass (the one
 * just before it, those between its cells and the one just after it).
 * A median, because a probe that the host pauses for a few ms reads
 * 2-3x slow while the pass around it loses only those few ms.
 *
 * The probe (probeWork, in probe.cc) keeps a core's execution ports and
 * branch predictor busy, as the simulators' interpreter and model loops
 * do: eight independent multiply-xorshift streams, then a walk over a
 * 64 KiB table with data-dependent branches. Pass times followed it
 * closely (correlation ~0.9 over the passes of six runs), where a
 * pointer chase (cache latency) or a memset (memory bandwidth)
 * followed them loosely: the spells act like a neighbour sharing the
 * physical core, which slows throughput-bound code and hardly touches
 * latency-bound code (see README.md). The probe is the benchmark's own
 * fixed code, so a change to the program moves a scaled time exactly
 * as it moves the wall-clock one.
 */
class SpeedProbe
{
  public:
    SpeedProbe() : table(kProbeTableBytes)
    {
        Rng rng(kProbeTableBytes);
        for (std::uint8_t &b : table)
            b = static_cast<std::uint8_t>(rng.next());
    }

    /** Time one probe. */
    void
    sample()
    {
        const std::uint64_t t = nowNs();
        sink = probeWork(table.data(), sink);
        lastNs = nowNs();
        samplesNs.push_back(static_cast<double>(lastNs - t));
        spent += lastNs - t;
    }

    /** Time one probe if none ran in the last kEveryNs. */
    void
    between()
    {
        if (nowNs() - lastNs >= kEveryNs)
            sample();
    }

    std::size_t samples() const { return samplesNs.size(); }

    /** Nanoseconds spent in probes so far. */
    std::uint64_t spentNs() const { return spent; }

    /** Multiply a time by this to get it at the reference speed; over
     *  samples [@p first, samples()). */
    double
    scale(std::size_t first) const
    {
        return kRefNs
               / median({samplesNs.begin()
                             + static_cast<std::ptrdiff_t>(first),
                         samplesNs.end()});
    }

    /** Median probe time, and a checksum that keeps the compiler from
     *  dropping the loops. */
    std::string
    describe() const
    {
        return "median " + json::formatDouble(median(samplesNs) / 1e6)
               + " ms over " + std::to_string(samplesNs.size())
               + " samples (checksum " + std::to_string(sink) + ")";
    }

  private:
    /** A pass samples at most this often between its cells, so the
     *  probes take ~2% of the time measured. */
    static constexpr std::uint64_t kEveryNs = 100'000'000;
    /** The probe's time in quiet spells on the reference host, a shared
     *  4-vCPU Xeon VM, with the stock build flags. */
    static constexpr double kRefNs = 2.0e6;

    std::vector<std::uint8_t> table;
    std::uint64_t sink = 0;
    std::vector<double> samplesNs;
    std::uint64_t lastNs = 0;
    std::uint64_t spent = 0;
};

/** The fields a cell is judged on: cycles, the Raw CSLC measured
 *  clock, the D9 partition and the validation verdict. */
bool
sameCell(const RunResult &a, const RunResult &b)
{
    return a.machine == b.machine && a.kernel == b.kernel
           && a.cycles == b.cycles
           && a.measuredUnbalanced == b.measuredUnbalanced
           && a.breakdown == b.breakdown && a.validated == b.validated;
}

std::string
cellLabel(const RunResult &r)
{
    return machineToken(r.machine) + "." + kernelToken(r.kernel);
}

/**
 * Geometric-mean error against the paper's Table 3, in percent:
 * 100 * (exp(mean over cells of |ln(simulated / paper)|) - 1).
 */
double
paperErrPct(const std::vector<RunResult> &results)
{
    double sum = 0.0;
    for (const RunResult &r : results) {
        const double paper =
            paperTable3Kcycles(r.machine, r.kernel) * 1000.0;
        sum += std::fabs(std::log(static_cast<double>(r.cycles) / paper));
    }
    return 100.0 * (std::exp(sum / static_cast<double>(results.size()))
                    - 1.0);
}

std::optional<std::vector<RunResult>>
loadExpected(const std::string &path, std::string *error)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        *error = "cannot read " + path;
        return std::nullopt;
    }
    std::ostringstream text;
    text << in.rdbuf();
    const auto doc = json::parse(text.str(), error);
    if (!doc)
        return std::nullopt;
    const json::Value *schema = doc->field("schema");
    const json::Value *cells = doc->field("cells");
    if (!schema || !schema->isString() || schema->text != kExpectedSchema
        || !cells || !cells->isArray()) {
        *error = path + ": not a " + kExpectedSchema + " document";
        return std::nullopt;
    }
    std::vector<RunResult> byCell;
    for (const Cell &cell : allCells()) {
        bool found = false;
        for (const json::Value &v : cells->items) {
            RunResult r;
            if (!parseRunResult(v, &r, error))
                return std::nullopt;
            if (r.machine == cell.machine && r.kernel == cell.kernel) {
                byCell.push_back(r);
                found = true;
                break;
            }
        }
        if (!found) {
            *error = path + ": no entry for "
                     + machineToken(cell.machine) + "."
                     + kernelToken(cell.kernel);
            return std::nullopt;
        }
    }
    return byCell;
}

int
writeExpectedFile(const std::string &path)
{
    ParallelRunner runner(StudyConfig{}, 1, &MappingRegistry::builtin(),
                          ParallelRunner::noCache());
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    json::Writer w(os);
    w.beginObject();
    w.member("schema", kExpectedSchema);
    w.member("note",
             "Table-3 cells of the paper's default StudyConfig: cycles "
             "and D9 breakdowns every table3/table3_docs pass must "
             "reproduce exactly. Regenerate with perfbench_triarch "
             "--write-expected only for a deliberate model change.");
    w.key("cells").beginArray();
    for (const RunResult &r : runner.runAll())
        writeRunResult(w, r);
    w.endArray();
    w.endObject();
    w.finish();
    os << "\n";
    if (!os) {
        std::cerr << "perfbench: cannot write " << path << "\n";
        return 1;
    }
    return 0;
}

/** One pass's outcome. */
struct PassResult
{
    std::uint64_t ns = 0;
    std::uint64_t cells = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;  //!< the first few, for the log
    std::vector<std::vector<RunResult>> results;    //!< per config
};

class Bench
{
  public:
    Bench(const Options &run_opts, ConfigList list, unsigned num_threads,
          std::vector<RunResult> expected_cells)
        : opts(run_opts), configs(std::move(list.configs)),
          threads(num_threads), expected(std::move(expected_cells))
    {
        for (std::size_t i = 0; i < configs.size(); ++i) {
            std::size_t j = 0;
            while (!(configs[j] == configs[i]))
                ++j;
            firstSame.push_back(j);
        }
        std::filesystem::create_directories(opts.outDir);
    }

    std::size_t configCount() const { return configs.size(); }

    /** Later passes are compared cell by cell against this one. */
    void setReference(const PassResult &pass) { reference = pass.results; }

    /** From now on, sample @p p between cells; its time is left out
     *  of the pass time (see SpeedProbe). */
    void setProbe(SpeedProbe *p) { probe = p; }

    /** Monotonic ns of the first cell dispatch (0 before it). */
    std::uint64_t firstDispatch() const { return firstDispatchNs; }

    /**
     * One pass over every config through @p reg. With @p rec, each
     * step gets a span and batch counts are recorded. PassResult::ns
     * leaves out the probe's samples. The first call
     * records the first dispatch time; with --setup-only it stops
     * there.
     */
    PassResult
    pass(const MappingRegistry &reg, SpanRecorder *rec)
    {
        PassResult out;
        const std::uint64_t start = nowNs();
        const std::uint64_t probeStart = probe ? probe->spentNs() : 0;
        SpanScope passSpan(rec, "pass", "perfbench");
        std::optional<ResultCache> cache;
        if (opts.workload == Workload::Sweep)
            cache.emplace();
        std::unique_ptr<trace::TraceSession> session;
        if (opts.workload == Workload::Table3Docs) {
            SpanScope s(rec, "sim.session_start", "sim");
            session = std::make_unique<trace::TraceSession>();
            session->start();
        }
        const std::vector<Cell> cells = allCells();
        for (std::size_t i = 0; i < configs.size(); ++i) {
            const StudyConfig &cfg = configs[i];
            {
                SpanScope s(rec, "study.validate_config", "study");
                if (auto err = validateConfig(cfg)) {
                    out.failed += cells.size();
                    out.failures.push_back("config rejected: "
                                           + describe(*err));
                }
            }
            std::optional<ParallelRunner> runner;
            {
                SpanScope s(rec, "kernels.synth", "kernels");
                runner.emplace(cfg, threads, &reg,
                               cache ? &*cache
                                     : ParallelRunner::noCache());
            }
            if (firstDispatchNs == 0) {
                firstDispatchNs = nowNs();
                if (opts.setupOnly)
                    return out;
            }
            std::vector<RunResult> results;
            {
                SpanScope s(rec, "study.batch", "study");
                const std::uint64_t b0 = nowNs();
                if (rec)
                    rec->adopt(s.spanId());
                // One cell per call, so the probe can sample between
                // cells.
                for (const Cell &cell : cells) {
                    if (probe)
                        probe->between();
                    results.push_back(runner->runCells({cell}).front());
                }
                if (rec) {
                    rec->adopt(0);
                    const stats::StatGroup &g = runner->statGroup();
                    const std::uint64_t ran = g.scalar("cells_run");
                    rec->count("study.cells_requested", cells.size());
                    rec->count("study.cells_cached",
                               g.scalar("cells_cached"));
                    rec->count("study.thread_ns",
                               std::min<std::uint64_t>(threads, ran)
                                   * (nowNs() - b0));
                }
            }
            {
                SpanScope s(rec, "perfbench.check", "perfbench");
                check(i, results, rec != nullptr, out);
            }
            {
                SpanScope s(rec, "study.runner_destroy", "study");
                runner.reset();
            }
            out.results.push_back(std::move(results));
        }
        if (session) {
            SpanScope s(rec, "sim.export", "sim");
            exportDocuments(*session);
            session.reset();
        }
        passSpan.end();
        out.ns = nowNs() - start
                 - (probe ? probe->spentNs() - probeStart : 0);
        return out;
    }

    /** Parse back the documents the last table3_docs pass wrote. */
    bool
    documentsParse(std::string *error) const
    {
        if (!hw::loadHwReportFile(path("hw.json"), error))
            return false;
        for (const char *name : {"trace.json", "stats.json"}) {
            std::ifstream in(path(name), std::ios::binary);
            std::ostringstream text;
            text << in.rdbuf();
            if (!in || !json::parse(text.str(), error)) {
                *error = path(name) + ": " + *error;
                return false;
            }
        }
        return true;
    }

  private:
    std::string
    path(const std::string &name) const
    {
        return opts.outDir + "/" + workloadName(opts.workload) + "."
               + name;
    }

    /** What --trace, --stats and --hw users get written. */
    void
    exportDocuments(trace::TraceSession &session)
    {
        session.stop();
        session.writeJsonFile(path("trace.json"));
        metrics::MetricsRegistry::global().writeJsonFile(
            path("stats.json"));
        std::ofstream os(path("hw.json"),
                         std::ios::binary | std::ios::trunc);
        hw::writeHwReport(os, hw::HwRegistry::global().report(
                                  studyConfigHashHex(configs.front())));
    }

    void
    check(std::size_t i, const std::vector<RunResult> &results,
          bool traced, PassResult &out)
    {
        out.cells += results.size();
        for (std::size_t c = 0; c < results.size(); ++c) {
            const RunResult &r = results[c];
            const char *why = nullptr;
            if (!r.validated) {
                why = "output does not validate";
            } else if (r.breakdown.total != r.cycles
                       || r.breakdown.categorySum() != r.cycles) {
                why = "breakdown does not partition the cycles";
            } else if (!expected.empty() && !sameCell(r, expected[c])) {
                why = "cycles or D9 partition differ from "
                      "expected_table3.json";
            } else if (!reference.empty()
                       && !sameCell(r, reference[i][c])) {
                why = traced ? "traced cell differs from the built-in "
                               "mapping"
                             : "differs from the first pass";
            } else if (firstSame[i] < i
                       && !sameCell(r, out.results[firstSame[i]][c])) {
                why = "repeated config gave a different result";
            }
            if (why) {
                ++out.failed;
                if (out.failures.size() < 5) {
                    out.failures.push_back("config " + std::to_string(i)
                                           + " " + cellLabel(r) + ": "
                                           + why);
                }
            }
        }
    }

    const Options &opts;
    std::vector<StudyConfig> configs;
    std::vector<std::size_t> firstSame;
    unsigned threads;
    std::vector<RunResult> expected;
    std::vector<std::vector<RunResult>> reference;
    std::uint64_t firstDispatchNs = 0;
    SpeedProbe *probe = nullptr;
};

/** One reported metric. */
struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** Run totals: cells attempted and failed, first failure messages. */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;

    void
    add(const PassResult &p)
    {
        attempted += p.cells;
        failed += p.failed;
        for (const std::string &f : p.failures) {
            if (failures.size() < 10)
                failures.push_back(f);
        }
    }
};

using Counts = std::map<std::string, std::uint64_t>;

/** @p key's value in a per-pass tally, 0 when absent. */
double
lookup(const Counts &tally, const std::string &key)
{
    auto it = tally.find(key);
    return it == tally.end() ? 0.0 : static_cast<double>(it->second);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** Per-layer metrics from the traced passes of a --trace 1 run; each
 *  is the median over passes of a per-pass figure. */
std::vector<Metric>
layerMetrics(const SpanRecorder &rec, double registryMs,
             std::size_t configs, double overheadPct, Tally &tally)
{
    const auto split = splitPasses(rec.spans(), "pass");
    const auto counts = rec.counts();
    std::vector<Metric> out;
    auto add = [&](const std::string &name, const char *unit, auto fn) {
        static const Counts none;
        std::vector<double> v;
        for (const auto &[id, p] : split) {
            auto it = counts.find(id);
            v.push_back(fn(p, it == counts.end() ? none : it->second));
        }
        out.push_back({name, median(v), unit});
    };
    auto spanMs = [](const std::string &span) {
        return [span](const PassSplit &p, const Counts &) {
            return lookup(p.byName, span) / 1e6;
        };
    };
    // Sum over the 15 cells of span "<m>.<k><suffix>".
    auto cellsMs = [](const PassSplit &p, const std::string &suffix) {
        double ns = 0.0;
        for (const Cell &cell : allCells()) {
            ns += lookup(p.byName, machineToken(cell.machine) + "."
                                       + kernelToken(cell.kernel) + suffix);
        }
        return ns / 1e6;
    };

    for (MachineId m : allMachines()) {
        for (KernelId k : allKernels()) {
            const std::string cell = machineToken(m) + "." + kernelToken(k);
            const std::string run = cell + ".run";
            add(cell + ".cell_ms", "ms", spanMs(cell));
            add(cell + ".setup_ms", "ms", spanMs(cell + ".construct"));
            add(cell + ".run_ms", "ms", spanMs(run));
            add(cell + ".ns_per_sim_cycle", "ns",
                [&](const PassSplit &p, const Counts &c) {
                    return ratio(lookup(p.byName, run),
                                 lookup(c, cell + ".sim_cycles"));
                });
            if (m == MachineId::Raw) {
                add(cell + ".ns_per_instr", "ns",
                    [&](const PassSplit &p, const Counts &c) {
                        return ratio(lookup(p.byName, run),
                                     lookup(c, cell + ".instrs"));
                    });
            }
        }
    }
    for (MachineId m : allMachines()) {
        for (KernelId k : allKernels()) {
            for (const char *what : {".accesses", ".misses"}) {
                const std::string name = "mem." + machineToken(m) + "."
                                         + kernelToken(k) + what;
                add(name, "count", [&](const PassSplit &, const Counts &c) {
                    return lookup(c, name);
                });
            }
        }
    }
    for (KernelId k : allKernels()) {
        add("kernels.validate_ms." + kernelToken(k), "ms",
            spanMs(kernelToken(k) + ".validate"));
    }
    add("kernels.synth_ms", "ms", spanMs("kernels.synth"));

    out.push_back({"study.registry_build_ms", registryMs, "ms"});
    add("study.validate_config_us", "us",
        [&](const PassSplit &p, const Counts &) {
            return lookup(p.byName, "study.validate_config") / 1e3
                   / static_cast<double>(configs);
        });
    add("study.batch_wall_ms", "ms", spanMs("study.batch"));
    add("study.batch_cell_sum_ms", "ms",
        [&](const PassSplit &p, const Counts &) { return cellsMs(p, ""); });
    add("study.par_eff", "ratio", [&](const PassSplit &p, const Counts &c) {
        return ratio(cellsMs(p, "") * 1e6, lookup(c, "study.thread_ns"));
    });
    add("study.cache_hit_ratio", "ratio",
        [](const PassSplit &, const Counts &c) {
            return ratio(lookup(c, "study.cells_cached"),
                         lookup(c, "study.cells_requested"));
        });

    add("sim.capture_ms", "ms", [&](const PassSplit &p, const Counts &) {
        return cellsMs(p, ".capture");
    });
    add("sim.export_ms", "ms", spanMs("sim.export"));
    out.push_back({"sim.trace_overhead_pct", overheadPct, "%"});

    std::vector<std::string> layers = {"perfbench", "study", "kernels",
                                       "sim"};
    for (MachineId m : allMachines())
        layers.push_back(machineLayer(m));
    for (const std::string &layer : layers) {
        add(layer + ".self_ms", "ms", [&](const PassSplit &p, const Counts &) {
            return lookup(p.selfNs, layer) / 1e6;
        });
    }
    add("pass.unattributed_ms", "ms", [](const PassSplit &p, const Counts &) {
        return static_cast<double>(p.unattributedNs) / 1e6;
    });

    double minCoverage = 100.0;
    for (const auto &[id, p] : split) {
        (void)id;
        minCoverage = std::min(
            minCoverage, 100.0 - 100.0 * ratio(static_cast<double>(
                                                   p.unattributedNs),
                                               static_cast<double>(p.passNs)));
    }
    out.push_back({"pass.coverage_pct", minCoverage, "%"});
    if (minCoverage < 95.0) {
        ++tally.failed;
        tally.failures.push_back("spans cover only "
                                 + json::formatDouble(minCoverage)
                                 + "% of a traced pass");
    }
    return out;
}

void
printResult(const Tally &tally, const std::vector<Metric> &metrics)
{
    json::Writer w(std::cout);
    w.beginObject(json::Writer::Style::Compact);
    w.member("correct", tally.failed == 0);
    w.member("attempted", tally.attempted);
    w.member("failed", tally.failed);
    w.key("metrics").beginObject();
    for (const Metric &m : metrics) {
        w.key(m.name).beginObject();
        w.member("value", std::isfinite(m.value) ? m.value : 0.0);
        w.member("unit", m.unit);
        w.endObject();
    }
    w.endObject();
    w.endObject();
    w.finish();
    std::cout << std::endl;
}

int
parseOptions(int argc, char **argv, Options &opts)
{
    CliOptions cli("triarch benchmark driver (see perfbench/README.md)",
                   "perfbench_triarch");
    cli.value("--workload", "NAME", "table3, sweep or table3_docs",
              [&](const std::string &v) {
                  if (!parseWorkload(v, &opts.workload)) {
                      std::cerr << "perfbench: unknown workload '" << v
                                << "'\n";
                      return 2;
                  }
                  opts.haveWorkload = true;
                  return 0;
              });
    cli.number("--seed", "N", "workload seed (default 1)",
               std::numeric_limits<std::uint64_t>::max(),
               [&](std::uint64_t n) {
                   opts.seed = n;
                   return 0;
               });
    cli.number("--seconds", "N", "measured seconds (required to measure)",
               3600, [&](std::uint64_t n) {
                   opts.seconds = n;
                   return 0;
               });
    cli.number("--trace", "0|1",
               "1: traced run reporting the per-layer metrics", 1,
               [&](std::uint64_t n) {
                   opts.trace = n == 1;
                   return 0;
               });
    cli.value("--out-dir", "DIR",
              "where documents and the Chrome trace are written",
              [&](const std::string &v) {
                  opts.outDir = v;
                  return 0;
              });
    cli.value("--expected", "PATH", "expected Table-3 cells",
              [&](const std::string &v) {
                  opts.expectedPath = v;
                  return 0;
              });
    cli.value("--write-expected", "PATH",
              "run the paper config once, write the expected cells "
              "and exit",
              [&](const std::string &v) {
                  opts.writeExpected = v;
                  return 0;
              });
    cli.toggle("--setup-only",
               "stop at the first cell dispatch and print setup_ns",
               [&]() {
                   opts.setupOnly = true;
                   return 0;
               });
    cli.value("--setup-samples", "NS,NS,...",
              "set-up times of --setup-only runs, folded into setup_s",
              [&](const std::string &v) {
                  for (const std::string &tok : splitList(v))
                      opts.setupSamplesNs.push_back(std::stod(tok));
                  return 0;
              });
    if (const auto rc = cli.parse(argc, argv))
        return *rc;
    if (!opts.haveWorkload && opts.writeExpected.empty()) {
        std::cerr << "perfbench: --workload is required\n";
        return 2;
    }
    if (opts.seconds == 0 && opts.writeExpected.empty() && !opts.setupOnly) {
        std::cerr << "perfbench: --seconds is required\n";
        return 2;
    }
    return -1;
}

} // namespace

int
main(int argc, char **argv)
{
    // The benchmark's own preparation (flags, the expected cells) is
    // left out of set-up.
    std::uint64_t ownNs = nowNs();
    Options opts;
    if (const int rc = parseOptions(argc, argv, opts); rc >= 0)
        return rc;
    if (!opts.writeExpected.empty())
        return writeExpectedFile(opts.writeExpected);
    std::string error;
    const auto expected = loadExpected(opts.expectedPath, &error);
    if (!expected) {
        std::cerr << "perfbench: " << error << "\n";
        return 1;
    }
    ownNs = nowNs() - ownNs;

    std::uint64_t regNs = nowNs();
    const MappingRegistry &builtin = MappingRegistry::builtin();
    regNs = nowNs() - regNs;

    const Workload w = opts.workload;
    const bool paperConfig = w != Workload::Sweep;
    ConfigList list = makeConfigs(w, opts.seed);
    // Every workload runs its cells on one thread. Two sweep threads
    // spread the run medians three times wider on a shared host: a
    // pass then waits on whichever CPU other tenants slow most.
    const unsigned threads = 1;

    const std::size_t generated = list.generated;
    const std::size_t repeats = list.repeats;
    const std::uint64_t listHash = list.hash;
    Bench bench(opts, std::move(list), threads,
                paperConfig ? *expected : std::vector<RunResult>{});

    PassResult warm = bench.pass(builtin, nullptr);
    // Set-up is scaled like the pass times, by probes timed in the same
    // process once it is done (with --setup-only, right after it); the
    // first probe, cold, is left out.
    double setupNs = static_cast<double>(bench.firstDispatch()
                                         - processStart.ns - ownNs);
    {
        SpeedProbe setupProbe;
        for (unsigned i = 0; i <= kSetupProbes; ++i)
            setupProbe.sample();
        setupNs *= setupProbe.scale(1);
    }
    if (opts.setupOnly) {
        std::cout << "setup_ns " << json::formatDouble(setupNs) << "\n";
        return 0;
    }

#ifdef __OPTIMIZE__
    const bool optimised = true;
#else
    const bool optimised = false;
#endif
    std::ostringstream meta;
    {
        json::Writer mw(meta);
        mw.beginObject(json::Writer::Style::Compact);
        mw.member("workload", workloadName(w));
        mw.member("seed", opts.seed);
        mw.member("trace", opts.trace);
        mw.member("build_type", PERFBENCH_BUILD_TYPE);
        mw.member("optimised", optimised);
#if defined(__clang__)
        mw.member("compiler", "clang " __VERSION__);
#else
        mw.member("compiler", "gcc " __VERSION__);
#endif
        mw.member("nproc", cpusAvailable());
        mw.member("threads", threads);
        mw.member("pinning", "none");
        mw.member("mem_model", mem::defaultMemModel() == mem::MemModel::Span
                                   ? "span"
                                   : "reference");
        mw.member("raw_stepper",
                  raw::defaultRawStepper() == raw::RawStepper::Event
                      ? "event"
                      : "reference");
        mw.member("configs", static_cast<std::uint64_t>(bench.configCount()));
        mw.member("configs_generated", static_cast<std::uint64_t>(generated));
        mw.member("repeated_share",
                  static_cast<double>(repeats)
                      / static_cast<double>(std::max<std::size_t>(
                          bench.configCount(), 1)));
        mw.member("config_list_hash", listHash);
        mw.endObject();
        mw.finish();
    }
    std::cout << "meta " << meta.str() << "\n";
    if (!optimised)
        std::cout << "WARNING: non-optimised build; host times are not "
                     "representative\n";

    Tally tally;
    tally.add(warm);
    bench.setReference(warm);

    std::vector<Metric> metrics;
    const std::uint64_t deadline = nowNs() + opts.seconds * 1'000'000'000ULL;
    if (!opts.trace) {
        // Read after the warm-up pass, which does what every measured
        // pass does, and before the speed probe's buffer and sweep's
        // paper pass (4 MiB DRAM images) would set the peak.
        const double peakRssMib =
            static_cast<double>(host::peakRssBytes()) / (1024.0 * 1024.0);
        // Per pass: wall-clock ms, then ms and cells per second at the
        // reference host speed (see SpeedProbe).
        std::vector<double> wallMs, passMs, cellsPerS;
        SpeedProbe probe;
        bench.setProbe(&probe);
        probe.sample();
        while (nowNs() < deadline || passMs.size() < kMinPasses) {
            const std::size_t first = probe.samples() - 1;
            const PassResult p = bench.pass(builtin, nullptr);
            probe.sample();
            tally.add(p);
            const double ms = static_cast<double>(p.ns) / 1e6;
            passMs.push_back(ms * probe.scale(first));
            wallMs.push_back(ms);
            cellsPerS.push_back(static_cast<double>(p.cells)
                                / (passMs.back() / 1e3));
        }
        bench.setProbe(nullptr);
        auto tail = [](std::vector<double> v) {
            std::sort(v.begin(), v.end());
            return v[v.size() - 1 - kTailBeyond];
        };
        const double tailPct =
            100.0 * static_cast<double>(passMs.size() - 1 - kTailBeyond)
            / static_cast<double>(passMs.size() - 1);

        // This process's own set-up counts only when it ran alone: its
        // probes come after the warm-up pass, not right after set-up.
        std::vector<double> setup = opts.setupSamplesNs;
        if (setup.empty())
            setup.push_back(setupNs);

        // Sweep never runs the paper config in its window, so it
        // checks one paper pass afterwards for paper_err_pct.
        std::vector<RunResult> paper = warm.results.front();
        if (!paperConfig) {
            ParallelRunner runner(StudyConfig{}, 1, &builtin,
                                  ParallelRunner::noCache());
            paper = runner.runAll();
            PassResult p;
            p.cells = paper.size();
            for (std::size_t c = 0; c < paper.size(); ++c) {
                if (!paper[c].validated || !sameCell(paper[c], (*expected)[c])) {
                    ++p.failed;
                    p.failures.push_back("paper " + cellLabel(paper[c])
                                         + ": differs from "
                                           "expected_table3.json");
                }
            }
            tally.add(p);
        }
        if (w == Workload::Table3Docs && !bench.documentsParse(&error)) {
            ++tally.failed;
            tally.failures.push_back("documents: " + error);
        }

        metrics = {
            {"pass_ms_p50", median(passMs), "ms"},
            {"pass_ms_tail", tail(passMs), "ms"},
            {"cells_per_s", median(cellsPerS), "1/s"},
            {"setup_s", median(setup) / 1e9, "s"},
            {"peak_rss_mib", peakRssMib, "MiB"},
            {"paper_err_pct", paperErrPct(paper), "%"},
        };
        std::cout << "passes " << passMs.size() << ", pass_ms_tail is p"
                  << json::formatDouble(tailPct) << " (" << kTailBeyond
                  << " passes above it), setup samples " << setup.size()
                  << "\nspeed probe: " << probe.describe()
                  << "; wall clock: pass_ms_p50 "
                  << json::formatDouble(median(wallMs)) << " pass_ms_tail "
                  << json::formatDouble(tail(wallMs)) << "\n";
    } else {
        SpanRecorder rec;
        const MappingRegistry traced = tracedRegistry(rec);
        std::vector<double> plainMs, tracedMs;
        std::uint32_t passId = 0;
        for (std::size_t pair = 0;
             nowNs() < deadline || pair < kMinTracedPairs; ++pair) {
            for (int side = 0; side < 2; ++side) {
                // Alternate which side goes first, so drift cancels.
                if ((side == 0) == (pair % 2 == 0)) {
                    const PassResult p = bench.pass(builtin, nullptr);
                    tally.add(p);
                    plainMs.push_back(static_cast<double>(p.ns) / 1e6);
                } else {
                    rec.setPass(++passId);
                    const PassResult p = bench.pass(traced, &rec);
                    tally.add(p);
                    tracedMs.push_back(static_cast<double>(p.ns) / 1e6);
                }
            }
        }
        const double plain = median(plainMs);
        metrics = layerMetrics(rec, static_cast<double>(regNs) / 1e6,
                               bench.configCount(),
                               100.0 * (median(tracedMs) - plain) / plain,
                               tally);
        const std::string tracePath =
            opts.outDir + "/" + workloadName(w) + ".spans.json";
        std::ofstream os(tracePath, std::ios::binary | std::ios::trunc);
        rec.writeChromeJson(os);
        std::cout << "traced passes " << tracedMs.size()
                  << ", untraced passes " << plainMs.size()
                  << ", spans written to " << tracePath << "\n";
    }

    std::cout << "cells_failed " << tally.failed << " of "
              << tally.attempted << "\n";
    for (const std::string &f : tally.failures)
        std::cout << "FAILED " << f << "\n";
    for (const Metric &m : metrics) {
        std::cout << "metric " << m.name << " "
                  << json::formatDouble(m.value) << " " << m.unit << "\n";
    }
    printResult(tally, metrics);
    return 0;
}
