#include "workloads.hh"

#include <algorithm>

#include "sim/rng.hh"
#include "study/config_check.hh"

namespace perfbench
{

using triarch::study::StudyConfig;

namespace
{

constexpr unsigned kSweepDistinct = 48;
constexpr unsigned kSweepRepeats = 16;

template <typename T>
void
shuffle(std::vector<T> &v, triarch::Rng &rng)
{
    for (std::size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[rng.nextBelow(i)]);
}

/** Pairs the sweep's shape levels; fixed, so that every seed runs the
 *  same shapes. */
constexpr std::uint64_t kSweepShapeSeed = 0x5eed5a7e;

/**
 * kSweepDistinct small configs as a Latin hypercube: each dimension
 * takes every level equally often (matrix 64..256, 1..8 sub-bands,
 * four strides, 1..2 dwells, one beam size per 8-wide stratum of
 * 16..400). The pairing of levels is fixed (kSweepShapeSeed); @p rng,
 * made from --seed, decides the data: jammer bins and data seeds. Host
 * time per cell depends on the shape, and the pairing decides how the
 * costs of the three kernels add up, so a per-seed pairing made the
 * pass time vary with the seed.
 */
std::vector<StudyConfig>
sweepConfigs(triarch::Rng &rng)
{
    triarch::Rng shapes(kSweepShapeSeed);
    std::vector<unsigned> matrix, subBands, stride, dwells, elements;
    static const unsigned strides[] = {64, 96, 112, 128};
    for (unsigned i = 0; i < kSweepDistinct; ++i) {
        matrix.push_back(64 * (1 + i % 4));
        subBands.push_back(1 + i % 8);
        stride.push_back(strides[i % 4]);
        dwells.push_back(1 + i % 2);
        elements.push_back(
            16 + 8 * i + static_cast<unsigned>(shapes.nextBelow(8)));
    }
    for (auto *dim : {&matrix, &subBands, &stride, &dwells, &elements})
        shuffle(*dim, shapes);
    // Config 0 opens every list (set-up ends at its synthesis), so
    // give it a mid-size shape.
    auto pin = [](std::vector<unsigned> &dim, unsigned level) {
        std::swap(dim[0], *std::find(dim.begin(), dim.end(), level));
    };
    pin(matrix, 128);
    pin(subBands, 4);
    pin(stride, 112);

    std::vector<StudyConfig> out;
    for (unsigned i = 0; i < kSweepDistinct; ++i) {
        StudyConfig cfg;
        cfg.matrixSize = matrix[i];
        cfg.cslc.subBands = subBands[i];
        cfg.cslc.subBandStride = stride[i];
        cfg.cslc.samples = (subBands[i] - 1) * stride[i]
                           + cfg.cslc.subBandLen;
        for (unsigned &bin : cfg.jammerBins)
            bin = static_cast<unsigned>(rng.nextBelow(cfg.cslc.samples));
        cfg.beam.elements = elements[i];
        cfg.beam.dwells = dwells[i];
        cfg.seed = rng.next();
        out.push_back(cfg);
    }
    return out;
}

} // namespace

bool
parseWorkload(const std::string &name, Workload *out)
{
    for (Workload w :
         {Workload::Table3, Workload::Sweep, Workload::Table3Docs}) {
        if (name == workloadName(w)) {
            *out = w;
            return true;
        }
    }
    return false;
}

const char *
workloadName(Workload w)
{
    switch (w) {
      case Workload::Table3:
        return "table3";
      case Workload::Sweep:
        return "sweep";
      case Workload::Table3Docs:
        return "table3_docs";
    }
    return "?";
}

ConfigList
makeConfigs(Workload w, std::uint64_t seed)
{
    ConfigList list;
    if (w != Workload::Sweep) {
        StudyConfig cfg;
        cfg.seed = seed;
        list.configs.push_back(cfg);
    } else {
        triarch::Rng rng(seed);
        list.configs = sweepConfigs(rng);
        // The levels are already randomly paired, so every third
        // config is a random third; the seeded shuffle spreads the
        // repeats through the list.
        for (unsigned i = 0; i < kSweepRepeats; ++i)
            list.configs.push_back(list.configs[3 * i]);
        const StudyConfig head = list.configs.front();
        shuffle(list.configs, rng);
        std::iter_swap(list.configs.begin(),
                       std::find(list.configs.begin(), list.configs.end(),
                                 head));
    }
    list.generated = list.configs.size();
    std::erase_if(list.configs, [](const StudyConfig &cfg) {
        return triarch::study::validateConfig(cfg).has_value();
    });

    std::vector<std::uint64_t> seen;
    list.hash = 0xcbf29ce484222325ULL;
    for (const StudyConfig &cfg : list.configs) {
        const std::uint64_t h = triarch::study::studyConfigHash(cfg);
        if (std::find(seen.begin(), seen.end(), h) != seen.end())
            ++list.repeats;
        seen.push_back(h);
        for (int b = 0; b < 64; b += 8) {
            list.hash ^= (h >> b) & 0xff;
            list.hash *= 0x100000001b3ULL;
        }
    }
    return list;
}

} // namespace perfbench
