/**
 * @file
 * JSON projections of the study layer's core value types — the
 * StudyConfig block and the per-cell RunResult — shared by every
 * document that carries them: the triarch.results.v2 document
 * (result_sink.hh) and perfbench's per-pass result records.
 * One writer per type, plus one RunResult parser, so a result
 * written and read back round-trips bit-identically (doubles are
 * rendered with json::formatDouble's round-trip precision, notes keep
 * their order, and the cycle-breakdown partition invariant is
 * re-checked on the way back in).
 */

#ifndef TRIARCH_STUDY_STUDY_JSON_HH
#define TRIARCH_STUDY_STUDY_JSON_HH

#include <string>

#include "sim/json.hh"
#include "study/experiment.hh"

namespace triarch::study
{

/** studyConfigHash(cfg) rendered as lowercase hex. */
std::string studyConfigHashHex(const StudyConfig &cfg);

/**
 * Emit the canonical config object: matrix_size, seed, cslc{...},
 * beam{...}, jammer_bins, hash. The writer must be positioned where
 * a value is expected (after key() or inside an array).
 */
void writeStudyConfig(json::Writer &w, const StudyConfig &cfg);

/** Emit the five-category breakdown object (token: cycles). */
void writeCycleBreakdown(json::Writer &w,
                         const stats::CycleBreakdown &breakdown);

/**
 * Emit one RunResult with machine-readable tokens only: machine,
 * kernel, cycles, validated, measured_unbalanced (when present),
 * breakdown, notes: the per-cell record of triarch.results.v2 and
 * of perfbench's pass records.
 */
void writeRunResult(json::Writer &w, const RunResult &result);

/**
 * Parse a RunResult written by writeRunResult(). Validates machine
 * and kernel tokens, requires every breakdown category, and
 * re-checks that the categories sum exactly to the cycle count.
 * Returns false and sets *error on the first violation.
 */
bool parseRunResult(const json::Value &v, RunResult *result,
                    std::string *error);

} // namespace triarch::study

#endif // TRIARCH_STUDY_STUDY_JSON_HH
