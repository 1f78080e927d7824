#include "fuzz.hh"

#include <functional>
#include <sstream>

#include "sim/logging.hh"
#include "sim/rng.hh"

namespace triarch::study
{

namespace
{

/** Recompute samples so the sub-band tiling covers the interval. */
void
retune(StudyConfig &c)
{
    c.cslc.samples = (c.cslc.subBands - 1) * c.cslc.subBandStride
                     + c.cslc.subBandLen;
}

/**
 * The smallest interesting config: every kernel exercises its
 * remainder paths (33 elements is neither a multiple of the VIRAM
 * vector length nor of Raw's tile count) while a full 15-cell grid
 * stays cheap enough to run hundreds of times.
 */
StudyConfig
smallBase()
{
    StudyConfig c;
    c.matrixSize = 64;
    c.cslc.subBands = 3;
    retune(c);                      // 2*112 + 128 = 352 samples
    c.beam.elements = 33;
    c.beam.directions = 2;
    c.beam.dwells = 1;
    c.jammerBins = {5, 100};
    return c;
}

/**
 * Hand-written boundary sweep around every strip/tile/block edge the
 * mappings tile by (VIRAM 64-element vectors, Raw 16 tiles, Imagine
 * 8 clusters), plus deliberately invalid configs that must come
 * back as typed ConfigErrors.
 */
std::vector<StudyConfig>
boundaryConfigs()
{
    std::vector<StudyConfig> list;
    auto add = [&list](const std::function<void(StudyConfig &)> &mut) {
        StudyConfig c = smallBase();
        mut(c);
        list.push_back(std::move(c));
    };

    add([](StudyConfig &) {});
    add([](StudyConfig &c) { c.matrixSize = 128; });
    add([](StudyConfig &c) { c.matrixSize = 192; });

    add([](StudyConfig &c) { c.cslc.subBands = 1; retune(c); });
    add([](StudyConfig &c) { c.cslc.subBands = 2; retune(c); });
    add([](StudyConfig &c) { c.cslc.subBands = 16; retune(c); });
    add([](StudyConfig &c) { c.cslc.subBands = 17; retune(c); });
    add([](StudyConfig &c) { c.cslc.subBandStride = 128; retune(c); });
    add([](StudyConfig &c) { c.cslc.subBandStride = 1; retune(c); });

    add([](StudyConfig &c) { c.jammerBins.clear(); });
    add([](StudyConfig &c) { c.jammerBins = {0}; });
    add([](StudyConfig &c) {
        c.jammerBins = {c.cslc.samples - 1};
    });

    for (unsigned e : {1u, 2u, 7u, 8u, 15u, 16u, 17u, 63u, 64u, 65u,
                       127u, 129u})
        add([e](StudyConfig &c) { c.beam.elements = e; });
    add([](StudyConfig &c) {
        c.beam.directions = 1;
        c.beam.dwells = 1;
    });
    add([](StudyConfig &c) { c.beam.shift = 0; });
    add([](StudyConfig &c) { c.beam.shift = 31; });

    // Invalid on purpose: the sweep asserts these are rejected with
    // a typed error, never a panic.
    add([](StudyConfig &c) { c.matrixSize = 0; });
    add([](StudyConfig &c) { c.matrixSize = 100; });
    add([](StudyConfig &c) { c.cslc.subBandLen = 100; retune(c); });
    add([](StudyConfig &c) { c.cslc.subBandLen = 64; retune(c); });
    add([](StudyConfig &c) { c.cslc.samples += 1; });
    add([](StudyConfig &c) { c.cslc.subBandStride = 0; retune(c); });
    add([](StudyConfig &c) { c.cslc.subBands = 0; });
    add([](StudyConfig &c) { c.cslc.mainChannels = 1; });
    add([](StudyConfig &c) { c.cslc.auxChannels = 3; });
    add([](StudyConfig &c) { c.jammerBins = {c.cslc.samples}; });
    add([](StudyConfig &c) { c.beam.elements = 0; });
    add([](StudyConfig &c) { c.beam.directions = 0; });
    add([](StudyConfig &c) { c.beam.dwells = 0; });
    add([](StudyConfig &c) { c.beam.shift = 32; });

    return list;
}

/** Break one field so the validator has something to reject. */
void
corrupt(StudyConfig &c, Rng &rng)
{
    switch (rng.nextBelow(6)) {
      case 0:
        c.cslc.samples += 1 + static_cast<unsigned>(rng.nextBelow(7));
        break;
      case 1:
        c.beam.shift = 32 + static_cast<unsigned>(rng.nextBelow(100));
        break;
      case 2:
        c.cslc.subBandLen = 100;
        retune(c);
        break;
      case 3:
        c.matrixSize += 1 + static_cast<unsigned>(rng.nextBelow(63));
        break;
      case 4:
        c.beam.elements = 0;
        break;
      default:
        c.jammerBins.push_back(
            c.cslc.samples + static_cast<unsigned>(rng.nextBelow(100)));
        break;
    }
}

std::vector<Cell>
selectedCells(const FuzzOptions &opts)
{
    return opts.cells.empty() ? allCells() : opts.cells;
}

} // namespace

std::vector<StudyConfig>
enumerateFuzzConfigs(const FuzzOptions &opts)
{
    std::vector<StudyConfig> list;
    if (opts.includeBoundary)
        list = boundaryConfigs();

    Rng rng(opts.seed);
    for (unsigned i = 0; i < opts.randomConfigs; ++i) {
        StudyConfig c;
        c.matrixSize =
            64 * (1 + static_cast<unsigned>(rng.nextBelow(3)));
        c.cslc.subBands = 1 + static_cast<unsigned>(rng.nextBelow(12));
        c.cslc.subBandStride =
            1 + static_cast<unsigned>(rng.nextBelow(160));
        retune(c);
        c.beam.elements =
            1 + static_cast<unsigned>(rng.nextBelow(200));
        c.beam.directions =
            1 + static_cast<unsigned>(rng.nextBelow(4));
        c.beam.dwells = 1 + static_cast<unsigned>(rng.nextBelow(3));
        c.beam.shift = static_cast<unsigned>(rng.nextBelow(32));
        c.jammerBins.clear();
        const auto nbins = static_cast<unsigned>(rng.nextBelow(4));
        for (unsigned b = 0; b < nbins; ++b) {
            c.jammerBins.push_back(
                static_cast<unsigned>(rng.nextBelow(c.cslc.samples)));
        }
        c.seed = 1 + rng.nextBelow(1u << 16);

        // Every fourth config is broken on purpose so the sweep also
        // covers the rejection path.
        if (i % 4 == 3)
            corrupt(c, rng);
        list.push_back(std::move(c));
    }
    return list;
}

std::optional<std::string>
checkConfigDifferential(const StudyConfig &cfg,
                        const FuzzOptions &opts)
{
    const std::vector<Cell> cells = selectedCells(opts);

    ParallelRunner serial(cfg, 1, opts.mappings);
    ParallelRunner par(cfg, opts.threads, opts.mappings);
    const std::vector<RunResult> serialResults = serial.runCells(cells);
    const std::vector<RunResult> parallel = par.runCells(cells);

    for (std::size_t i = 0; i < cells.size(); ++i) {
        const std::string label = machineToken(cells[i].machine) + "/"
                                  + kernelToken(cells[i].kernel);
        const RunResult &serialRes = serialResults[i];
        const RunResult &parRes = parallel[i];
        if (!serialRes.validated) {
            return label + ": output failed reference validation ("
                   + std::to_string(serialRes.cycles) + " cycles)";
        }
        if (!(serialRes == parRes)) {
            return label
                   + ": parallel result differs from serial (serial "
                   + std::to_string(serialRes.cycles)
                   + " cycles, parallel "
                   + std::to_string(parRes.cycles)
                   + " cycles, parallel validated="
                   + (parRes.validated ? "true" : "false") + ")";
        }
    }
    return std::nullopt;
}

StudyConfig
minimizeFailure(const StudyConfig &cfg, const FuzzOptions &opts)
{
    using Transform = std::function<void(StudyConfig &)>;
    const std::vector<Transform> transforms = {
        [](StudyConfig &c) { c.matrixSize = 64; },
        [](StudyConfig &c) {
            c.matrixSize = (c.matrixSize / 2) / 64 * 64;
        },
        [](StudyConfig &c) { c.cslc.subBands = 1; retune(c); },
        [](StudyConfig &c) {
            c.cslc.subBands /= 2;
            retune(c);
        },
        [](StudyConfig &c) { c.jammerBins.clear(); },
        [](StudyConfig &c) { c.beam.elements = 1; },
        [](StudyConfig &c) { c.beam.elements /= 2; },
        [](StudyConfig &c) { c.beam.directions = 1; },
        [](StudyConfig &c) { c.beam.dwells = 1; },
        [](StudyConfig &c) { c.beam.shift = 6; },
        [](StudyConfig &c) { c.seed = 11; },
    };

    StudyConfig cur = cfg;
    bool improved = true;
    unsigned rounds = 0;
    while (improved && rounds++ < 16) {
        improved = false;
        for (const Transform &t : transforms) {
            StudyConfig cand = cur;
            t(cand);
            // Stay inside the valid config space and only keep a
            // shrink if the failure survives it.
            if (cand == cur || validateConfig(cand))
                continue;
            if (checkConfigDifferential(cand, opts)) {
                cur = std::move(cand);
                improved = true;
            }
        }
    }
    return cur;
}

std::string
describeConfig(const StudyConfig &cfg)
{
    std::ostringstream os;
    os << "matrixSize=" << cfg.matrixSize << " cslc={"
       << cfg.cslc.mainChannels << "+" << cfg.cslc.auxChannels
       << "ch, " << cfg.cslc.samples << " samples, "
       << cfg.cslc.subBands << "x" << cfg.cslc.subBandLen << "/"
       << cfg.cslc.subBandStride << "} beam={" << cfg.beam.elements
       << "x" << cfg.beam.directions << "x" << cfg.beam.dwells
       << ", shift " << cfg.beam.shift << "} jammerBins=[";
    for (std::size_t i = 0; i < cfg.jammerBins.size(); ++i)
        os << (i ? "," : "") << cfg.jammerBins[i];
    os << "] seed=" << cfg.seed << " hash=0x" << std::hex
       << studyConfigHash(cfg);
    return os.str();
}

FuzzReport
runDifferentialFuzz(const FuzzOptions &opts)
{
    FuzzReport report;
    report.configs = enumerateFuzzConfigs(opts);
    const std::size_t ncells = selectedCells(opts).size();

    for (const StudyConfig &cfg : report.configs) {
        if (auto err = validateConfig(cfg)) {
            report.rejected.push_back({cfg, std::move(*err)});
            continue;
        }
        report.cellsChecked += ncells;
        if (auto detail = checkConfigDifferential(cfg, opts)) {
            StudyConfig min = minimizeFailure(cfg, opts);
            std::string minDetail =
                checkConfigDifferential(min, opts).value_or(*detail);
            report.failures.push_back({min, studyConfigHash(min),
                                       std::move(minDetail)});
        }
    }
    return report;
}

} // namespace triarch::study
