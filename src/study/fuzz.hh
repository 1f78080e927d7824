/**
 * @file
 * Differential config-fuzzing across the four simulators. A seeded,
 * wall-clock-free enumerator sweeps boundary and random workload
 * shapes; every config that passes the ConfigValidator is run on
 * every registered (machine, kernel) cell twice — through a
 * ParallelRunner at one thread and at opts.threads — and the two
 * result sets must agree bit-for-bit with every output validating
 * against the reference kernels. A disagreement is minimized to the
 * smallest config that still fails and reported with its
 * studyConfigHash so it can be replayed exactly.
 *
 * Configs the validator rejects are part of the sweep on purpose:
 * each one must come back as a typed ConfigError, never as a panic.
 */

#ifndef TRIARCH_STUDY_FUZZ_HH
#define TRIARCH_STUDY_FUZZ_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "study/config_check.hh"
#include "study/parallel.hh"

namespace triarch::study
{

/** Shape and budget of one fuzzing run. */
struct FuzzOptions
{
    std::uint64_t seed = 11;        //!< enumerator seed
    /** Random configs on top of the fixed boundary set. */
    unsigned randomConfigs = 48;
    /** Include the hand-written boundary config list. */
    bool includeBoundary = true;
    /** Worker threads for the second run of each comparison. */
    unsigned threads = 2;
    /** Cells to compare per config; empty = every registered cell. */
    std::vector<Cell> cells;
    /** Mapping registry; null = MappingRegistry::builtin(). Every
     *  selected cell must be registered (an unmapped pair is
     *  fatal). */
    const MappingRegistry *mappings = nullptr;
};

/** A config the validator rejected, with its typed error. */
struct FuzzRejection
{
    StudyConfig config;
    ConfigError error;
};

/** One minimized, reproducible cross-architecture disagreement. */
struct FuzzFailure
{
    StudyConfig config;         //!< minimized reproducer
    std::uint64_t configHash;   //!< studyConfigHash(config)
    std::string detail;         //!< first observed disagreement
};

/** Everything one runDifferentialFuzz() sweep observed. */
struct FuzzReport
{
    std::vector<StudyConfig> configs;       //!< enumerated, in order
    std::vector<FuzzRejection> rejected;
    std::uint64_t cellsChecked = 0;         //!< 1-thread/N-thread pairs
    std::vector<FuzzFailure> failures;

    bool clean() const { return failures.empty(); }
};

/**
 * The config list for @p opts: a fixed boundary set (strip/tile/
 * block edges, single-element shapes, extreme shifts, deliberately
 * invalid configs) plus opts.randomConfigs seeded random shapes.
 * A pure function of opts.seed/randomConfigs/includeBoundary — no
 * wall clock, no global state — so the same options give the same
 * list on every run and at every thread count.
 */
std::vector<StudyConfig> enumerateFuzzConfigs(const FuzzOptions &opts);

/**
 * Run every selected cell of @p cfg through an uncached
 * ParallelRunner at one thread and at opts.threads, and compare.
 * Returns a description of the first failure — a cell whose output
 * fails reference validation, or whose multi-threaded result is not
 * bit-identical to the one-thread one — or nullopt when all cells
 * agree. @p cfg must already be valid.
 */
std::optional<std::string>
checkConfigDifferential(const StudyConfig &cfg,
                        const FuzzOptions &opts);

/**
 * Greedily shrink @p cfg (fewer sub-bands, elements, dwells,
 * smaller matrix...) while checkConfigDifferential still fails, so
 * the reported reproducer is the smallest failing config found.
 */
StudyConfig minimizeFailure(const StudyConfig &cfg,
                            const FuzzOptions &opts);

/** One-line reproducer string (all fields + studyConfigHash). */
std::string describeConfig(const StudyConfig &cfg);

/** Enumerate, validate, and differentially check every config. */
FuzzReport runDifferentialFuzz(const FuzzOptions &opts);

} // namespace triarch::study

#endif // TRIARCH_STUDY_FUZZ_HH
