#include "host_measure.hh"

#include <algorithm>
#include <cstdio>
#include <limits>

#include "study/cli_options.hh"
#include "study/machine_info.hh"
#include "study/registry.hh"

namespace triarch::study
{

HostSection
measureHostSection(const StudyConfig &cfg,
                   const std::vector<Cell> &cells,
                   const host::MeasureOptions &opts)
{
    const auto work = buildWorkloads(cfg);

    HostSection section;
    section.warmup = opts.warmup;
    section.repetitions = std::max(opts.repetitions, 1u);

    // Pin once for the whole sweep; per-cell measureRepeated calls
    // then skip the pin (already effective for this thread).
    bool pinned = false;
    if (opts.pinCpu >= 0)
        pinned = host::pinToCpu(opts.pinCpu);
    section.pinned = pinned;
    host::MeasureOptions cellOpts = opts;
    cellOpts.pinCpu = -1;

    double medianSumNs = 0.0;
    for (const Cell &cell : cells) {
        const KernelMapping &mapping =
            MappingRegistry::builtin().at(cell.machine, cell.kernel);
        const host::Measurement m = host::measureRepeated(
            cellOpts, [&] { (void)mapping(cfg, *work); });

        HostCellTiming timing;
        timing.machine = cell.machine;
        timing.kernel = cell.kernel;
        timing.medianNs = m.stats.medianNs;
        timing.p95Ns = m.stats.p95Ns;
        timing.minNs = m.stats.minNs;
        timing.stddevNs = m.stats.stddevNs;
        section.cells.push_back(timing);
        medianSumNs += m.stats.medianNs;
    }
    if (medianSumNs > 0.0) {
        section.cellsPerSec =
            static_cast<double>(section.cells.size()) * 1e9
            / medianSumNs;
    }
    return section;
}

namespace
{

/**
 * Keep the cells whose id, read by @p key, is in the comma list
 * @p list of @p what tokens; returns 2 on an unknown token.
 */
template <typename Id>
int
keepListed(const std::string &list, const char *what,
           std::optional<Id> (*parse)(const std::string &),
           Id Cell::*key, std::vector<Cell> &cells)
{
    std::vector<Id> keep;
    for (const std::string &token : splitList(list)) {
        const auto id = parse(token);
        if (!id) {
            std::fprintf(stderr, "unknown %s token '%s'\n", what,
                         token.c_str());
            return 2;
        }
        keep.push_back(*id);
    }
    std::erase_if(cells, [&](const Cell &cell) {
        return std::find(keep.begin(), keep.end(), cell.*key)
               == keep.end();
    });
    return 0;
}

} // namespace

std::optional<int>
parseMicroHostArgs(int argc, char **argv, MicroHostArgs *args)
{
    CliOptions cli("Measure the host wall-clock cost of simulating "
                   "each Table-3 cell",
                   "micro_host");
    cli.number("--seed", "N", "workload synthesis seed (default 11)",
               std::numeric_limits<std::uint64_t>::max(),
               [args](std::uint64_t n) {
                   args->seed = n;
                   return 0;
               });
    cli.number("--warmup", "N",
               "unmeasured iterations per cell (default 1)",
               std::numeric_limits<unsigned>::max(),
               [args](std::uint64_t n) {
                   args->measure.warmup = static_cast<unsigned>(n);
                   return 0;
               });
    cli.number("--reps", "N",
               "measured iterations per cell (default 5; the "
               "measurement contract wants 30+)",
               std::numeric_limits<unsigned>::max(),
               [args](std::uint64_t n) {
                   args->measure.repetitions = static_cast<unsigned>(n);
                   return 0;
               });
    cli.number("--pin", "N",
               "pin the measurement to core N (exit 2 if it cannot)",
               4095,
               [args](std::uint64_t n) {
                   args->measure.pinCpu = static_cast<int>(n);
                   return 0;
               });
    cli.toggle("--json",
               "emit a triarch.results.v2 document with a host block "
               "on stdout instead of the table",
               [args]() {
                   args->json = true;
                   return 0;
               });
    cli.value("--machines", "LIST",
              "comma-separated machine tokens to measure (default "
              "all); e.g. --machines raw for the Raw host-time gate",
              [args](const std::string &v) {
                  return keepListed(v, "machine", &parseMachineToken,
                                    &Cell::machine, args->cells);
              });
    cli.value("--kernels", "LIST",
              "comma-separated kernel tokens to measure (ct, cslc, "
              "bs; default all); e.g. --machines raw --kernels ct",
              [args](const std::string &v) {
                  return keepListed(v, "kernel", &parseKernelToken,
                                    &Cell::kernel, args->cells);
              });
    cli.toggle("--grid",
               "print only the one-line grid summary (median sum and "
               "cells/sec) instead of the table",
               [args]() {
                   args->grid = true;
                   return 0;
               });
    cli.modelFlags();
    cli.logLevelFlag();
    if (const auto rc = cli.parse(argc, argv))
        return rc;
    if (args->cells.empty()) {
        std::fprintf(stderr, "--machines/--kernels matched no cells\n");
        return 2;
    }
    return std::nullopt;
}

} // namespace triarch::study
