#include "experiment.hh"

#include <cmath>
#include <iterator>

#include "sim/logging.hh"
#include "study/config_check.hh"

namespace triarch::study
{

const std::vector<KernelId> &
allKernels()
{
    static const std::vector<KernelId> ids = {
        KernelId::CornerTurn, KernelId::Cslc, KernelId::BeamSteering};
    return ids;
}

const std::string &
kernelName(KernelId id)
{
    static const std::string names[] = {"Corner Turn", "CSLC",
                                        "Beam Steering"};
    const auto i = static_cast<std::size_t>(id);
    if (i >= std::size(names))
        triarch_panic("KernelId out of range: ", i);
    return names[i];
}

const std::string &
kernelToken(KernelId id)
{
    static const std::string tokens[] = {"ct", "cslc", "bs"};
    const auto i = static_cast<std::size_t>(id);
    if (i >= std::size(tokens))
        triarch_panic("KernelId out of range: ", i);
    return tokens[i];
}

std::optional<KernelId>
parseKernelToken(const std::string &token)
{
    for (KernelId k : allKernels()) {
        if (kernelToken(k) == token)
            return k;
    }
    return std::nullopt;
}

namespace
{

/** FNV-1a over the bytes of integral values. */
class Fnv1a
{
  public:
    template <typename T>
    void
    mix(T value)
    {
        const auto v = static_cast<std::uint64_t>(value);
        for (unsigned i = 0; i < 8; ++i) {
            hash ^= (v >> (8 * i)) & 0xff;
            hash *= 0x100000001B3ULL;
        }
    }

    std::uint64_t value() const { return hash; }

  private:
    std::uint64_t hash = 0xCBF29CE484222325ULL;
};

} // namespace

std::uint64_t
studyConfigHash(const StudyConfig &cfg)
{
    Fnv1a h;
    h.mix(cfg.matrixSize);
    h.mix(cfg.cslc.mainChannels);
    h.mix(cfg.cslc.auxChannels);
    h.mix(cfg.cslc.samples);
    h.mix(cfg.cslc.subBands);
    h.mix(cfg.cslc.subBandLen);
    h.mix(cfg.cslc.subBandStride);
    h.mix(cfg.beam.elements);
    h.mix(cfg.beam.directions);
    h.mix(cfg.beam.dwells);
    h.mix(cfg.beam.shift);
    h.mix(cfg.jammerBins.size());
    for (unsigned bin : cfg.jammerBins)
        h.mix(bin);
    h.mix(cfg.seed);
    return h.value();
}

double
RunResult::milliseconds() const
{
    const double mhz = machineInfo(machine).clockMhz;
    return static_cast<double>(cycles) / (mhz * 1000.0);
}

std::shared_ptr<const Workloads>
buildWorkloads(const StudyConfig &cfg)
{
    // A bad config is a user error, not a simulator bug: fail with
    // the typed rule here, before any machine or worker thread sees
    // the workloads. Callers who want the error as a value use
    // validateConfig() (config_check.hh) first.
    if (auto err = validateConfig(cfg))
        triarch_fatal("invalid StudyConfig (", err->field, "): ",
                      err->message);

    auto work = std::make_shared<Workloads>();

    work->matrix = kernels::WordMatrix(cfg.matrixSize, cfg.matrixSize);
    kernels::fillMatrix(work->matrix, cfg.seed);

    work->cslcIn =
        kernels::makeJammedInput(cfg.cslc, cfg.jammerBins, cfg.seed);
    work->weights = kernels::estimateWeights(cfg.cslc, work->cslcIn);
    work->refMixed =
        kernels::cslcReference(cfg.cslc, work->cslcIn, work->weights,
                               kernels::FftAlgo::Mixed128);
    work->refRadix2 =
        kernels::cslcReference(cfg.cslc, work->cslcIn, work->weights,
                               kernels::FftAlgo::Radix2);

    work->tables = kernels::makeBeamTables(cfg.beam, cfg.seed + 1);
    work->beamRef = kernels::beamSteerReference(cfg.beam, work->tables);

    return work;
}

bool
cslcOutputValid(const StudyConfig &cfg, const Workloads &work,
                const kernels::CslcOutput &out, kernels::FftAlgo algo)
{
    const kernels::CslcOutput &ref = algo == kernels::FftAlgo::Mixed128
                                         ? work.refMixed
                                         : work.refRadix2;
    double err = 0.0, power = 0.0;
    for (unsigned m = 0; m < cfg.cslc.mainChannels; ++m) {
        for (std::size_t i = 0; i < ref.main[m].size(); ++i) {
            err += std::norm(ref.main[m][i] - out.main[m][i]);
            power += std::norm(ref.main[m][i]);
        }
    }
    return err <= 1e-4 * power;
}

} // namespace triarch::study
