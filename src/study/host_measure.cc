#include "host_measure.hh"

#include <algorithm>

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

} // namespace triarch::study
