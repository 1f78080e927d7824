/**
 * @file
 * Shared CLI harness for every bench binary. A bench defines one
 * body function and delegates argv to benchMain() via
 * TRIARCH_BENCH_MAIN; the harness owns flag parsing, the study
 * configuration, a ParallelRunner over the selected cells, and the
 * optional JSON results emission — no bench parses argv by hand.
 *
 * Flags (common to all benches):
 *   --machines a,b,...  restrict to these platforms
 *                       (ppc, altivec, viram, imagine, raw)
 *   --kernels a,b,...   restrict to these kernels (ct, cslc, bs)
 *   --threads N         worker threads (0 = hardware concurrency)
 *   --seed N            workload synthesis seed (default 11)
 *   --json PATH         write a triarch.results.v2 JSON document
 *                       (exit 2 if the bench recorded no cell)
 *   --csv               machine-readable table output where supported
 *   --trace PATH        write a Chrome trace-event JSON timeline
 *   --stats PATH        write a triarch.stats.v1 counters document
 *                       (exit 2 if no cell ran)
 *   --hw PATH           write a triarch.hw.v1 utilization report
 *                       (exit 2 if no cell ran)
 *   --host-stats        add each cell's host ns to --stats
 *                       (exit 2 without --stats)
 *   --log-level LEVEL   quiet, warn, inform, or debug
 *   --help              usage
 *
 * Flags accept both "--flag value" and "--flag=value". Neither the
 * G4/VIRAM memory walk nor the Raw run loop has a selector: every
 * binary runs the one production path, and their references are
 * test witnesses.
 */

#ifndef TRIARCH_BENCH_BENCH_MAIN_HH
#define TRIARCH_BENCH_BENCH_MAIN_HH

#include <memory>
#include <string>
#include <vector>

#include "study/parallel.hh"
#include "study/result_sink.hh"

namespace triarch::bench
{

/** Parsed command-line options. */
struct BenchOptions
{
    std::vector<study::MachineId> machines;  //!< selection (all 5)
    std::vector<study::KernelId> kernels;    //!< selection (all 3)
    unsigned threads = 0;                    //!< 0 = hardware
    std::uint64_t seed = 11;
    std::string jsonPath;                    //!< empty = no JSON
    std::string tracePath;                   //!< empty = no tracing
    std::string statsPath;                   //!< empty = no stats doc
    std::string hwPath;                      //!< empty = no hw report
    bool csv = false;

    /** --host-stats: turn host profiling on process-wide, so the
     *  --stats document gains each cell's "<label>.host" group. */
    bool hostStats = false;
    std::string prog = "bench"; //!< program name for usage errors
};

/**
 * Everything a bench body needs: the options, the study config they
 * imply, a lazily constructed ParallelRunner, the (cached) results
 * of the selected cells, and the sink behind --json.
 */
class BenchContext
{
  public:
    explicit BenchContext(BenchOptions run_options);
    ~BenchContext();

    const BenchOptions &options() const { return opts; }

    /** The paper's workload parameters with the --seed applied. */
    const study::StudyConfig &config() const { return cfg; }

    /** Parallel runner over config(), backed by this context's
     *  ResultCache: a body that re-asks for a cell (claims rows call
     *  run() repeatedly) simulates it once. */
    study::ParallelRunner &runner();

    /** Results for the selected machines x kernels, computed
     *  concurrently on first use and recorded in the sink. */
    const std::vector<study::RunResult> &results();

    /** Results for the full 5x3 grid, for the paper's figure/table
     *  builders that need every cell (including the AltiVec
     *  baseline). Exits 2 when --machines/--kernels narrow the grid
     *  rather than silently ignoring them. A bench should use either
     *  this or results(), not both, so the sink stays
     *  duplicate-free. */
    const std::vector<study::RunResult> &allResults();

    /** The cells selected by --machines/--kernels. */
    std::vector<study::Cell> selectedCells() const;

    /** The sink written to --json when the body returns. */
    study::ResultSink &sink();

  private:
    BenchOptions opts;
    study::StudyConfig cfg;
    study::ResultCache memo;    //!< outlives par, which points at it
    std::unique_ptr<study::ParallelRunner> par;
    std::unique_ptr<study::ResultSink> out;
    std::vector<study::RunResult> cellResults;
    std::vector<study::RunResult> gridResults;
    bool haveResults = false;
    bool haveGrid = false;
};

using BenchBody = int (*)(BenchContext &);

/** Parse argv, run @p body, emit --json; returns the exit code. */
int benchMain(int argc, char **argv, const char *description,
              BenchBody body);

} // namespace triarch::bench

/** Defines main() for a bench with the given description and body. */
#define TRIARCH_BENCH_MAIN(description, body) \
    int main(int argc, char **argv) \
    { \
        return ::triarch::bench::benchMain(argc, argv, description, \
                                           body); \
    }

#endif // TRIARCH_BENCH_BENCH_MAIN_HH
