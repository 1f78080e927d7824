/**
 * @file
 * The benchmark's workloads, made from the --seed argument. The
 * program only ever sees the StudyConfigs built here.
 *
 *  - table3 / table3_docs: the paper's default StudyConfig (its data
 *    seed set from --seed; the kernels are data-oblivious, so cycles
 *    do not depend on it).
 *  - sweep: a list of small configs (matrix 64-256, 1-8 sub-bands,
 *    16-400 beam elements, 1-2 dwells) in which a quarter of the
 *    entries repeat an earlier config, so a result cache serves them.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "study/experiment.hh"

namespace perfbench
{

enum class Workload { Table3, Sweep, Table3Docs };

/** Parse a workload name; false for an unknown one. */
bool parseWorkload(const std::string &name, Workload *out);

const char *workloadName(Workload w);

/** The configs one pass runs, in order. */
struct ConfigList
{
    std::vector<triarch::study::StudyConfig> configs;
    std::size_t generated = 0;  //!< before dropping rejected configs
    std::size_t repeats = 0;    //!< entries equal to an earlier entry
    std::uint64_t hash = 0;     //!< FNV-1a over the config hashes
};

/** The configs of @p w for @p seed. Sweep configs that validateConfig
 *  rejects are dropped here, before any timing. */
ConfigList makeConfigs(Workload w, std::uint64_t seed);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
