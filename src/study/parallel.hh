/**
 * @file
 * The experiment engine — the study's only runner: a work-queue
 * scheduler that runs any set of (machine, kernel) cells on freshly
 * constructed per-task machine models against one immutable shared
 * Workloads. At one thread (or one pending cell) it calls each
 * mapping inline on the calling thread; at more it fans the cells
 * out to workers, with bit-identical results either way.
 *
 * Determinism: every KernelMapping is a pure function of the
 * (config, workloads) pair — machines are constructed per task, the
 * workloads are synthesized once from the config seed before any
 * worker starts, and no mapping touches global mutable state (the
 * FFT twiddle caches are thread_local; see the re-entrancy notes in
 * kernels/fft.cc). Results land in slots indexed by cell, not by
 * completion order, so the output vector is independent of thread
 * count and scheduling.
 */

#ifndef TRIARCH_STUDY_PARALLEL_HH
#define TRIARCH_STUDY_PARALLEL_HH

#include <memory>
#include <vector>

#include "sim/stats.hh"
#include "study/experiment.hh"
#include "study/result_cache.hh"

namespace triarch::study
{

class MappingRegistry;

/** One schedulable task: a (machine, kernel) pair. */
struct Cell
{
    MachineId machine{};
    KernelId kernel{};

    friend bool operator==(const Cell &, const Cell &) = default;
};

/** All 15 Table-3 cells in (machine-major, kernel-minor) order. */
std::vector<Cell> allCells();

/** The cells @p machines x @p kernels, machine-major in list order;
 *  an empty list stands for every machine (kernel). */
std::vector<Cell> selectCells(const std::vector<MachineId> &machines,
                              const std::vector<KernelId> &kernels);

class ParallelRunner
{
  public:
    /**
     * @param run_config workload parameters (the paper's by default)
     * @param num_threads worker count; 0 picks the hardware
     *        concurrency, capped at the number of scheduled cells
     * @param mappings dispatch table; defaults to
     *        MappingRegistry::builtin()
     * @param cache the caller's cell memo; noCache() (the default)
     *        recomputes every cell
     */
    explicit ParallelRunner(StudyConfig run_config = {},
                            unsigned num_threads = 0,
                            const MappingRegistry *mappings = nullptr,
                            ResultCache *cache = noCache());
    ~ParallelRunner();

    const StudyConfig &config() const { return cfg; }

    /** The hash the cache keys this runner's cells under. */
    std::uint64_t configHash() const { return cfgHash; }

    /** Configured worker count (0 = hardware concurrency). */
    unsigned threads() const { return nthreads; }

    /** The shared immutable workloads (never null). */
    const std::shared_ptr<const Workloads> &workloads() const
    {
        return work;
    }

    /** Run one cell, through the cache (fatal if unmapped). */
    RunResult run(MachineId machine, KernelId kernel);

    /** Run all 15 cells in allCells() order. */
    std::vector<RunResult> runAll();

    /** Run an arbitrary cell set; results are returned in @p cells
     *  order. Every uncached cell's mapping is resolved on the
     *  calling thread before any worker starts, so an unmapped pair
     *  is fatal there. */
    std::vector<RunResult> runCells(const std::vector<Cell> &cells);

    /** The @p cache argument that disables caching (the default). */
    static ResultCache *noCache() { return nullptr; }

    /**
     * Scheduler progress counters ("scheduler" group, captured into
     * the global MetricsRegistry when the runner dies): batches
     * submitted, cells executed / served from cache. Counts
     * only — no wall clock — so the values are identical at any
     * worker-thread count. When host profiling is enabled
     * (host::setProfiling) at construction the group additionally
     * carries the host-ns totals cell_host_ns and queue_wait_ns;
     * otherwise they are neither recorded nor registered.
     */
    const stats::StatGroup &statGroup() const { return schedGroup; }

  private:
    StudyConfig cfg;
    std::uint64_t cfgHash;
    unsigned nthreads;
    const MappingRegistry *mappings;
    ResultCache *cache;
    std::shared_ptr<const Workloads> work;

    stats::StatGroup schedGroup{"scheduler"};
    stats::AtomicScalar nBatches;
    stats::AtomicScalar nCellsRun;
    stats::AtomicScalar nCellsCached;
    const bool hostOn;
    stats::AtomicScalar cellHostNs;
    stats::AtomicScalar queueWaitNs;
};

} // namespace triarch::study

#endif // TRIARCH_STUDY_PARALLEL_HH
