/**
 * @file
 * The perf-regression gate: compares benchmark measurements against
 * the committed baseline (bench/baselines/BENCH_table3.json) and the
 * paper's Table 3, and exits non-zero on drift. Cycles and every
 * cycle-account category must match the baseline exactly.
 *
 * Both sides are triarch.results.v2 documents. By default the tool
 * re-measures the full grid itself; pass --report to diff a
 * previously captured one (table3_kernel_cycles --json PATH, or
 * micro_host --json for a document with a host block) instead.
 * This binary does not use the shared bench_main harness: its flags
 * (--baseline, --report, --paper-factor, ...) are gate controls, not
 * cell selectors. They are declared in
 * parseBenchDiffArgs() on study::CliOptions, so a misspelled flag or
 * a malformed number is a usage error, never a silently skipped
 * check.
 *
 * Exit codes: 0 all checks pass; 1 drift or paper-target violation;
 * 2 usage or I/O error.
 */

#include <iostream>
#include <string>

#include "study/bench_report.hh"
#include "study/parallel.hh"

using namespace triarch;
using namespace triarch::study;

namespace
{

/** Report the failure lines of one check; returns ok(). */
bool
report(const std::string &what, const BenchDiffResult &diff)
{
    if (diff.ok()) {
        std::cout << what << ": OK (" << diff.cellsCompared
                  << " cells)\n";
        return true;
    }
    std::cout << what << ": FAIL\n";
    for (const std::string &line : diff.failures)
        std::cout << "  " << line << "\n";
    return false;
}

} // namespace

int
main(int argc, char **argv)
{
    BenchDiffArgs opts;
    if (const auto rc = parseBenchDiffArgs(argc, argv, &opts))
        return *rc;

    std::string error;
    const auto baseline = loadResultsFile(opts.baselinePath, &error);
    if (!baseline) {
        std::cerr << argv[0] << ": " << error << "\n";
        return 2;
    }

    ResultsDocument fresh;
    if (!opts.reportPath.empty()) {
        const auto loaded = loadResultsFile(opts.reportPath, &error);
        if (!loaded) {
            std::cerr << argv[0] << ": " << error << "\n";
            return 2;
        }
        fresh = *loaded;
    } else {
        StudyConfig cfg;
        cfg.seed = opts.seed;
        ParallelRunner runner(cfg, opts.threads);
        ResultSink sink(cfg);
        sink.add(runner.runAll());
        fresh = sink.document();
        std::cout << "measured " << fresh.results.size()
                  << " cells (seed " << cfg.seed << ")\n";
    }

    bool ok = report("baseline diff vs " + opts.baselinePath,
                     diffBenchReports(*baseline, fresh));
    if (opts.paperFactor > 0.0) {
        ok &= report("paper Table 3 sanity",
                     checkPaperTargets(fresh, opts.paperFactor));
    }

    // Host wall-clock comparison: advisory lines by default (host
    // time depends on the machine running the gate), a real check
    // with --host-gate.
    if (baseline->host || fresh.host || opts.hostGate > 0.0) {
        std::vector<std::string> advisory;
        const BenchDiffResult hostDiff = diffHostSections(
            *baseline, fresh, opts.hostGate, &advisory);
        for (const std::string &line : advisory)
            std::cout << "  (advisory) " << line << "\n";
        if (opts.hostGate > 0.0) {
            ok &= report("host-time gate (" +
                             std::to_string(opts.hostGate) + "x)",
                         hostDiff);
        }
    }
    return ok ? 0 : 1;
}
