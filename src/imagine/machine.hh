/**
 * @file
 * The Imagine machine model: stream loads/stores between off-chip
 * SDRAM and the SRF, and software-pipelined SIMD kernels over the
 * eight ALU clusters.
 *
 * Programs drive the machine exactly the way Imagine applications
 * are structured: the host issues stream loads, kernel invocations,
 * and stream stores; the machine tracks when each stream becomes
 * ready and overlaps memory transfers with kernel execution subject
 * to the stream-descriptor-register limit. Kernels carry both a
 * functional body (a C++ callable operating on real SRF data) and a
 * VLIW schedule model (per-iteration op counts -> initiation
 * interval; pipeline depth -> prologue), mirroring kernel-C loops.
 */

#ifndef TRIARCH_IMAGINE_MACHINE_HH
#define TRIARCH_IMAGINE_MACHINE_HH

#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "imagine/config.hh"
#include "imagine/srf.hh"
#include "mem/dram.hh"
#include "sim/cycle_account.hh"
#include "sim/zero_buffer.hh"
#include "sim/hw_report.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace triarch::imagine
{

/** A memory access pattern for one stream transfer. */
struct MemPattern
{
    Addr base = 0;
    unsigned recordWords = 1;   //!< contiguous words per record
    Addr strideBytes = 4;       //!< distance between record starts
    unsigned records = 0;       //!< number of records

    unsigned
    totalWords() const
    {
        return recordWords * records;
    }

    /** A flat sequential pattern of @p words starting at @p base. */
    static MemPattern
    sequential(Addr base, unsigned words)
    {
        return {base, words, static_cast<Addr>(words) * 4, 1};
    }
};

/**
 * Static description of one kernel-C loop: per-iteration operation
 * counts (one iteration processes one record per cluster, i.e. 8
 * records) and software-pipeline depth. The machine derives the
 * initiation interval from the cluster resources.
 */
struct KernelDesc
{
    std::string name;
    unsigned iterations = 0;
    unsigned adds = 0;          //!< adder-class ops (incl. shifts)
    unsigned mults = 0;
    unsigned divs = 0;
    unsigned comm = 0;          //!< inter-cluster words exchanged
    unsigned srfWords = 0;      //!< SRF words read+written
    unsigned pipelineDepth = 8; //!< prologue iterations
    /** Algorithmically useful flops per invocation (for stats). */
    std::uint64_t usefulFlops = 0;
};

/** The Imagine stream processor + its two SDRAM channels. */
class ImagineMachine
{
  public:
    explicit ImagineMachine(const ImagineConfig &machine_config = {});

    const ImagineConfig &config() const { return cfg; }

    // ------------------------------------------------------------
    // Host-side memory and SRF management.
    // ------------------------------------------------------------

    /** Bump-allocate off-chip DRAM. */
    Addr allocMem(std::uint64_t bytes, const std::string &what);

    void pokeWords(Addr addr, std::span<const Word> words);
    std::vector<Word> peekWords(Addr addr, std::size_t count) const;

    /** Allocate / free an SRF stream. */
    StreamRef allocStream(unsigned words, const std::string &what);
    void freeStream(const StreamRef &ref);

    /** Raw view of a stream's SRF storage (functional data). */
    std::span<Word> srfData(const StreamRef &ref);
    std::span<const Word> srfData(const StreamRef &ref) const;

    // ------------------------------------------------------------
    // Timed stream operations.
    // ------------------------------------------------------------

    /** DRAM -> SRF transfer on the earliest-free memory engine. */
    void loadStream(const StreamRef &ref, const MemPattern &pattern);

    /** SRF -> DRAM transfer (waits until the stream is produced). */
    void storeStream(const StreamRef &ref, const MemPattern &pattern);

    /**
     * Run a kernel. @p fn is the functional body and executes
     * immediately against SRF contents; timing follows the VLIW
     * schedule model. Inputs gate the start; outputs become ready at
     * completion.
     */
    void runKernel(const KernelDesc &desc,
                   std::initializer_list<const StreamRef *> inputs,
                   std::initializer_list<const StreamRef *> outputs,
                   const std::function<void()> &fn);

    /** Initiation interval implied by a kernel's op counts. */
    Cycles kernelIi(const KernelDesc &desc) const;

    // ------------------------------------------------------------
    // Timing and statistics.
    // ------------------------------------------------------------

    Cycles completionTime() const;
    void resetTiming();

    /**
     * Finalize the cycle account against @p total (normally
     * completionTime()): cluster-array kernel execution is compute,
     * stream-engine transfer windows are dram_dma, host issue
     * overhead is setup_readback, and uncovered cycles (stream-
     * readiness and descriptor waits) are network/sync idle. Kernel
     * execution takes priority over overlapped transfers, so a
     * fully-overlapped memory system shows up as pure compute —
     * and cache_stall is structurally zero in stream mode. Also
     * records the breakdown into the stat group's account_* scalars.
     */
    stats::CycleBreakdown cycleBreakdown(Cycles total);

    stats::StatGroup &statGroup() { return group; }

    /** The component StatGroups (one per SDRAM channel) behind the
     *  main group, as (label-suffix, group) pairs for per-cell
     *  capture. */
    std::vector<std::pair<std::string, stats::StatGroup *>>
    componentGroups();

    /**
     * Roll the cluster/stream-engine counters into the cell's
     * hardware report: ALU utilization, DRAM row-hit rate, bus
     * utilization, stream-op occupancy, the busy epoch timeline, and
     * a bottleneck verdict consistent with @p breakdown
     * (hw_report.hh, D14).
     */
    hw::HwCell hwCell(Cycles total,
                      const stats::CycleBreakdown &breakdown);

    std::uint64_t clusterBusy() const { return _clusterBusy.value(); }
    std::uint64_t memBusy() const { return _memBusy.value(); }
    std::uint64_t memWords() const { return _memWords.value(); }
    std::uint64_t hostCycles() const { return _hostCycles.value(); }
    std::uint64_t usefulFlops() const { return _usefulFlops.value(); }
    std::uint64_t commOps() const { return _commOps.value(); }

    /** Useful flops / (cycles x peak flops per cycle). */
    double aluUtilization() const;

    /** Fraction of total time the memory engines were moving data. */
    double memoryFraction() const;

    /** One-paragraph block-diagram description (Figure 2). */
    std::string describe() const;

  private:
    /** Apply host issue cost and the descriptor-register limit. */
    Cycles issueOp();

    Cycles streamReady(const StreamRef &ref) const;
    void setStreamReady(const StreamRef &ref, Cycles when);

    ImagineConfig cfg;

    // Functional state.
    ZeroBuffer dram;
    std::vector<Word> srf;
    SrfAllocator allocator;
    Addr allocNext = 64;

    // Timing state.
    Cycles hostCycle = 0;
    Cycles clusterFree = 0;
    std::vector<Cycles> engineFree;
    std::vector<std::unique_ptr<mem::DramModel>> channels;
    std::vector<std::pair<unsigned, Cycles>> readyList;  //!< id->cycle
    std::deque<Cycles> inflight;    //!< outstanding stream ops
    Cycles lastFinish = 0;

    // Busy intervals for the wall-clock cycle account.
    stats::CycleTimeline timeline;

    /** Epoch channels sampled over the cluster-array and
     *  stream-engine busy windows. */
    hw::EpochSampler hwSamp{{"cluster_busy", "mem_busy"}};

    // Statistics.
    stats::StatGroup group;
    stats::Scalar _clusterBusy;
    stats::Scalar _memBusy;
    stats::Scalar _memWords;
    stats::Scalar _hostCycles;
    stats::Scalar _usefulFlops;
    stats::Scalar _commOps;
    stats::Scalar _kernels;
    stats::Scalar _streamOps;
    stats::Scalar _descStalls;
    stats::Average _avgKernelIi;
    stats::BreakdownStats accountStats;
};

} // namespace triarch::imagine

#endif // TRIARCH_IMAGINE_MACHINE_HH
