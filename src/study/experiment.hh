/**
 * @file
 * The study's vocabulary: the three kernels, the workload
 * configuration, the per-cell RunResult, and the immutable shared
 * Workloads (synthesized inputs plus golden reference outputs) that
 * every (machine, kernel) measurement behind Table 3 and Figures 8-9
 * runs against.
 *
 * Cells are implemented once in the MappingRegistry (registry.hh)
 * and run by the ParallelRunner (parallel.hh) — the only runner; at
 * one thread it calls each mapping inline on the calling thread.
 */

#ifndef TRIARCH_STUDY_EXPERIMENT_HH
#define TRIARCH_STUDY_EXPERIMENT_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "kernels/beam_steering.hh"
#include "kernels/corner_turn.hh"
#include "kernels/cslc.hh"
#include "sim/cycle_account.hh"
#include "sim/types.hh"
#include "study/machine_info.hh"

namespace triarch::study
{

/** The three kernels of the study. */
enum class KernelId { CornerTurn, Cslc, BeamSteering };

const std::vector<KernelId> &allKernels();
const std::string &kernelName(KernelId id);

/** Short machine-readable kernel id ("ct", "cslc", "bs"). */
const std::string &kernelToken(KernelId id);

/** Inverse of kernelToken(); nullopt for unknown tokens. */
std::optional<KernelId> parseKernelToken(const std::string &token);

/** Workload parameters; defaults are the paper's (Section 3). */
struct StudyConfig
{
    unsigned matrixSize = 1024;             //!< corner turn n x n
    kernels::CslcConfig cslc{};
    kernels::BeamConfig beam{};
    std::vector<unsigned> jammerBins = {300, 1700, 4090};
    std::uint64_t seed = 11;

    friend bool operator==(const StudyConfig &,
                           const StudyConfig &) = default;
};

/**
 * Stable 64-bit hash over every workload-affecting field of a
 * StudyConfig. Two configs with the same hash produce the same
 * workloads and hence the same per-cell results; the ResultCache
 * keys on (machine, kernel, this hash).
 */
std::uint64_t studyConfigHash(const StudyConfig &cfg);

/** Outcome of one (machine, kernel) measurement. */
struct RunResult
{
    MachineId machine{};
    KernelId kernel{};
    /** Reported cycles (Raw CSLC: the paper's load-balance
     *  extrapolation, Section 4.3). */
    Cycles cycles = 0;
    /** Raw CSLC only: the measured (imbalanced) wall clock. */
    std::optional<Cycles> measuredUnbalanced;
    /** Where the cycles went: per-category partition of `cycles`
     *  (the categories sum exactly to it — cycle_account.hh). */
    stats::CycleBreakdown breakdown;
    /** Output checked against the reference implementation. */
    bool validated = false;
    /** Named explanatory figures (utilization, stall fractions...). */
    std::vector<std::pair<std::string, double>> notes;

    /** Wall-clock milliseconds at the machine's clock rate. */
    double milliseconds() const;

    /** Field-for-field (bit-identical) comparison. */
    friend bool operator==(const RunResult &,
                           const RunResult &) = default;
};

/**
 * Immutable shared workloads and golden outputs, built once per
 * configuration and shared (read-only) by every cell that runs
 * against it — including cells running concurrently on worker
 * threads, which is safe because nothing mutates a Workloads after
 * buildWorkloads() returns.
 */
struct Workloads
{
    // Corner turn.
    kernels::WordMatrix matrix;

    // CSLC.
    kernels::CslcInput cslcIn;
    kernels::CslcWeights weights;
    kernels::CslcOutput refMixed;
    kernels::CslcOutput refRadix2;

    // Beam steering.
    kernels::BeamTables tables;
    std::vector<std::int32_t> beamRef;
};

/**
 * Deterministically synthesize the workloads and reference outputs
 * for @p cfg (everything derives from cfg.seed). An invalid
 * configuration is a user error: it exits with the violated rule
 * from validateConfig() (config_check.hh); callers who want the
 * error as a value run the validator themselves first.
 */
std::shared_ptr<const Workloads> buildWorkloads(const StudyConfig &cfg);

/** Validate a CSLC output against the matching-radix reference. */
bool cslcOutputValid(const StudyConfig &cfg, const Workloads &work,
                     const kernels::CslcOutput &out,
                     kernels::FftAlgo algo);

} // namespace triarch::study

#endif // TRIARCH_STUDY_EXPERIMENT_HH
