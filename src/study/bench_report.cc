#include "bench_report.hh"

#include <iomanip>
#include <iostream>
#include <limits>
#include <sstream>

#include "sim/logging.hh"
#include "study/cli_options.hh"
#include "study/machine_info.hh"

namespace triarch::study
{

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

namespace
{

std::string
cellName(const RunResult &cell)
{
    return machineToken(cell.machine) + "/" + kernelToken(cell.kernel);
}

} // namespace

BenchDiffResult
diffBenchReports(const ResultsDocument &baseline,
                 const ResultsDocument &fresh)
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

    for (const RunResult &cell : fresh.results) {
        if (!baseline.find(cell.machine, cell.kernel))
            failf(cellName(cell) + ": not in the baseline");
    }

    for (const RunResult &base : baseline.results) {
        const RunResult *cell = fresh.find(base.machine, base.kernel);
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
diffHostSections(const ResultsDocument &baseline,
                 const ResultsDocument &fresh, double gate_ratio,
                 std::vector<std::string> *advisory)
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
                + " has no host block");
        } else {
            note("host: no host block in " + which
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
checkPaperTargets(const ResultsDocument &report, double factor)
{
    triarch_assert(factor >= 1.0, "paper-target factor must be >= 1");
    BenchDiffResult result;
    for (const RunResult &cell : report.results) {
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
                   "committed triarch.results.v2 baseline and the "
                   "paper's Table 3",
                   "bench_diff");
    cli.value("--baseline", "PATH", "committed baseline JSON (required)",
              [args](const std::string &v) {
                  args->baselinePath = v;
                  return 0;
              });
    cli.value("--report", "PATH",
              "diff this results document (table3_kernel_cycles "
              "--json, micro_host --json) instead of re-measuring",
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
