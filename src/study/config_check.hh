/**
 * @file
 * Up-front validation of a StudyConfig. Every rule a registered
 * mapping or the reference pipeline relies on is checked here and
 * reported as a typed ConfigError, so a bad configuration fails
 * before buildWorkloads() runs — not as a panic deep inside a worker
 * thread.
 *
 * The rules (also listed in the README):
 *  - matrixSize: a positive multiple of 64 (VIRAM 64-element strips,
 *    Raw 64x64 blocks, Imagine 8-row strips, Altivec 4x4 register
 *    tiles), at most 8192.
 *  - cslc: exactly 2 main + 2 aux channels (the mappings and the
 *    two-stage weight estimator are built for the paper's four
 *    channels); subBandLen a power of two and exactly 128 (the
 *    mixed-radix FFT and every architecture's inner loop are sized
 *    for 128-sample sub-bands); subBands >= 1; subBandStride >= 1;
 *    (subBands-1)*subBandStride + subBandLen == samples.
 *  - jammerBins: every bin < samples (a tone outside the interval's
 *    FFT range would silently alias).
 *  - beam: elements, directions, dwells >= 1; shift < 32 (a wider
 *    shift of the 32-bit phase accumulator is UB).
 *  - size caps (samples, subBands, elements, directions, dwells)
 *    that keep footprints inside the simulated memories and index
 *    arithmetic inside 32 bits.
 */

#ifndef TRIARCH_STUDY_CONFIG_CHECK_HH
#define TRIARCH_STUDY_CONFIG_CHECK_HH

#include <optional>
#include <string>
#include <vector>

#include "study/experiment.hh"

namespace triarch::study
{

/** One violated configuration rule. */
struct ConfigError
{
    std::string field;      //!< e.g. "cslc.subBandLen"
    std::string message;    //!< why the value is rejected

    friend bool operator==(const ConfigError &,
                           const ConfigError &) = default;
};

/** "field: message" for logs and error strings. */
std::string describe(const ConfigError &err);

/** Every violated rule in @p cfg, in deterministic field order. */
std::vector<ConfigError> configErrors(const StudyConfig &cfg);

/**
 * The first violated rule, or nullopt when @p cfg is runnable on
 * every registered mapping. buildWorkloads() calls this and exits
 * (triarch_fatal) with the typed message on a violation.
 */
std::optional<ConfigError> validateConfig(const StudyConfig &cfg);

} // namespace triarch::study

#endif // TRIARCH_STUDY_CONFIG_CHECK_HH
