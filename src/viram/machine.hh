/**
 * @file
 * The VIRAM machine model: a functional-plus-timed vector processor
 * with on-chip DRAM.
 *
 * Kernels program the machine through vector "intrinsics" (the
 * hand-vectorized inner loops of the paper). Every intrinsic both
 * moves real data — so kernel outputs are checked against the
 * reference implementations — and advances a timing scoreboard:
 *
 *  - one vector instruction issues per cycle from the scalar core;
 *  - each instruction occupies a functional unit (VAU0, VAU1 or the
 *    memory unit) for ceil(vl / throughput) cycles;
 *  - results become readable startup-latency cycles later, and
 *    dependent instructions wait (chaining is modeled by letting the
 *    unit start as soon as sources are ready);
 *  - vector FP executes on VAU0 only; integer ops and permutes use
 *    whichever unit frees first (permutes prefer VAU1);
 *  - memory instructions walk the DRAM bank/row state and the TLB,
 *    charging precharge and refill penalties on top of the address-
 *    generator-limited transfer time.
 */

#ifndef TRIARCH_VIRAM_MACHINE_HH
#define TRIARCH_VIRAM_MACHINE_HH

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "mem/cache.hh"
#include "sim/bitutil.hh"
#include "sim/cycle_account.hh"
#include "sim/hw_report.hh"
#include "sim/stats.hh"
#include "sim/types.hh"
#include "sim/zero_buffer.hh"
#include "viram/config.hh"

namespace triarch::viram
{

/** Handle to a vector register. */
using Vreg = unsigned;

/** The VIRAM processor + on-chip DRAM model. */
class ViramMachine
{
  public:
    explicit ViramMachine(const ViramConfig &machine_config = {});

    const ViramConfig &config() const { return cfg; }

    // ------------------------------------------------------------
    // Host-side memory management (not timed).
    // ------------------------------------------------------------

    /** Bump-allocate @p bytes of on-chip DRAM, 64-byte aligned. */
    Addr alloc(std::uint64_t bytes, const std::string &what);

    /** Host write of raw words into simulated DRAM. */
    void pokeWords(Addr addr, std::span<const Word> words);

    /** Host read of raw words from simulated DRAM. */
    std::vector<Word> peekWords(Addr addr, std::size_t count) const;

    // ------------------------------------------------------------
    // Timed vector instruction set.
    // ------------------------------------------------------------

    /** Set vector length; returns min(n, maxVl). */
    unsigned setvl(unsigned n);

    unsigned vl() const { return curVl; }

    /** Unit-stride load of vl words into @p vd. */
    void vldUnit(Vreg vd, Addr addr);

    /** Strided load: element i comes from addr + i*strideBytes. */
    void vldStride(Vreg vd, Addr addr, Addr strideBytes);

    /** Unit-stride store of vl words from @p vs. */
    void vstUnit(Vreg vs, Addr addr);

    /** Strided store. */
    void vstStride(Vreg vs, Addr addr, Addr strideBytes);

    /**
     * Indexed (gather) load: element i comes from
     * base + vidx[i] * 4. Gathers run at the address-generator rate
     * like other non-unit accesses and walk the bank/TLB state per
     * element.
     */
    void vldIndexed(Vreg vd, Addr base, Vreg vidx);

    /** Indexed (scatter) store: element i goes to base + vidx[i]*4. */
    void vstIndexed(Vreg vs, Addr base, Vreg vidx);

    /** Broadcast a 32-bit value to all elements of @p vd. */
    void vbcast(Vreg vd, Word value);

    // Vector floating point (VAU0 only).
    void vaddF(Vreg vd, Vreg va, Vreg vb);
    void vsubF(Vreg vd, Vreg va, Vreg vb);
    void vmulF(Vreg vd, Vreg va, Vreg vb);
    /** vd = -va (used for conjugation in the IFFT). */
    void vnegF(Vreg vd, Vreg va);
    /** vd = va * s for a scalar float (IFFT 1/N scaling). */
    void vscaleF(Vreg vd, Vreg va, float s);

    // Vector integer (either VAU).
    void vaddI(Vreg vd, Vreg va, Vreg vb);
    void vsubI(Vreg vd, Vreg va, Vreg vb);
    /** vd = va + imm (signed). */
    void vaddIs(Vreg vd, Vreg va, std::int32_t imm);
    /** Logical shift left by immediate. */
    void vshlI(Vreg vd, Vreg va, unsigned sh);
    /** Arithmetic shift right by immediate. */
    void vsraI(Vreg vd, Vreg va, unsigned sh);

    /**
     * Two-source element permute: vd[i] = concat(va, vb)[idx[i]].
     * This is the FFT shuffle instruction; it executes on a vector
     * arithmetic unit (VAU1 when free) and is the source of the
     * paper's 1.67x shuffle overhead on the CSLC.
     */
    void vperm2(Vreg vd, Vreg va, Vreg vb,
                std::span<const std::uint16_t> idx);

    /** Single-source permute: vd[i] = va[idx[i]]. */
    void vperm(Vreg vd, Vreg va, std::span<const std::uint16_t> idx);

    /** Charge @p n scalar-core cycles (loop/address bookkeeping). */
    void scalarOps(unsigned n = 1);

    // ------------------------------------------------------------
    // Timing and statistics.
    // ------------------------------------------------------------

    /** Cycle at which all issued work completes. */
    Cycles completionTime() const;

    /**
     * Finalize the cycle account against @p total (normally
     * completionTime()): every wall cycle is attributed to the
     * highest-priority busy unit covering it — VAU busy is compute,
     * memory-unit busy (incl. row/TLB overhead) is dram_dma, scalar
     * bookkeeping is setup_readback — and uncovered cycles (chaining
     * and startup waits) are network/sync idle. Also records the
     * breakdown into the stat group's account_* scalars.
     */
    stats::CycleBreakdown cycleBreakdown(Cycles total);

    /** Reset the clock, scoreboard and stats (memory survives). */
    void resetTiming();

    stats::StatGroup &statGroup() { return group; }

    /** The component StatGroups behind the main group, as
     *  (label-suffix, group) pairs for per-cell capture. */
    std::vector<std::pair<std::string, stats::StatGroup *>>
    componentGroups()
    {
        return {{"tlb", &tlb.statGroup()}};
    }

    /**
     * Roll the lane/memory-unit counters into the cell's hardware
     * report: lane and VMU utilization, TLB hit rate, row-miss rate,
     * the per-unit busy epoch timeline, and a bottleneck verdict
     * consistent with @p breakdown (hw_report.hh, D14).
     */
    hw::HwCell hwCell(Cycles total,
                      const stats::CycleBreakdown &breakdown);

    std::uint64_t vectorInstructions() const { return _vinsts.value(); }
    std::uint64_t rowOverheadCycles() const { return _rowCycles.value(); }
    std::uint64_t tlbOverheadCycles() const { return _tlbCycles.value(); }
    std::uint64_t vau0Busy() const { return _vau0Busy.value(); }
    std::uint64_t vau1Busy() const { return _vau1Busy.value(); }
    std::uint64_t vmuBusy() const { return _vmuBusy.value(); }
    std::uint64_t permInstructions() const { return _perms.value(); }

    /** One-paragraph block-diagram description (Figure 1). */
    std::string describe() const;

  private:
    enum Unit { VAU0 = 0, VAU1 = 1, VMU = 2, NumUnits = 3 };

    /** Read a register's element view for the current vl. */
    std::span<const Word> read(Vreg v) const;
    std::span<Word> write(Vreg v);

    /**
     * Advance the scoreboard for one instruction.
     *
     * @param unit    functional unit it occupies
     * @param busy    cycles the unit is occupied
     * @param startup extra latency until the result is readable
     * @param srcs    source registers (result waits on their ready)
     * @param dst     destination register or -1
     */
    void issue(Unit unit, Cycles busy, Cycles startup,
               std::initializer_list<Vreg> srcs, int dst);

    /** Pick the earlier-free VAU for an integer op. */
    Unit pickVau(bool prefer_vau1 = false) const;

    /**
     * Timing of a vector memory access: address-generator-limited
     * transfer plus DRAM row and TLB overheads.
     */
    Cycles memAccessCycles(Addr addr, Addr stride_bytes, bool unit);

    /** Timing for an arbitrary per-element address list (gathers). */
    Cycles memAccessCyclesIndexed(std::span<const Addr> addrs);

    void checkReg(Vreg v) const;
    void checkAddr(Addr addr, std::uint64_t bytes) const;

    ViramConfig cfg;

    // Functional state.
    ZeroBuffer dram;
    std::vector<std::vector<Word>> vregs;
    unsigned curVl;
    Addr allocNext = 64;

    // Timing state.
    Cycles issueCycle = 0;
    Cycles unitFree[NumUnits] = {0, 0, 0};
    std::vector<Cycles> regReady;
    Cycles lastFinish = 0;

    // DRAM open-row state (banks) and TLB.
    std::vector<Addr> openRow;
    mem::Tlb tlb;

    // Bank geometry in shift form; the constructor asserts that the
    // interleave, bank count and row size are powers of two.
    unsigned ilvShift = floorLog2(cfg.bankInterleaveBytes);
    unsigned bankShift = floorLog2(cfg.banks);
    unsigned rowShift = floorLog2(cfg.rowBytes);

    /** Bank and DRAM row of an address. */
    std::pair<unsigned, Addr>
    bankRowOf(Addr a) const
    {
        const Addr chunk = a >> ilvShift;
        const unsigned bank =
            static_cast<unsigned>(chunk & (cfg.banks - 1));
        const Addr row = ((chunk >> bankShift) << ilvShift) >> rowShift;
        return {bank, row};
    }

    // Busy intervals for the wall-clock cycle account.
    stats::CycleTimeline timeline;

    /** Epoch channels indexed by Unit (VAU0/VAU1/VMU), sampled in
     *  issue() over the unit-busy interval. */
    hw::EpochSampler hwSamp{{"vau0_busy", "vau1_busy", "vmu_busy"}};

    // Statistics.
    stats::StatGroup group;
    stats::Scalar _vinsts;
    stats::Scalar _scalarCycles;
    stats::Scalar _vau0Busy;
    stats::Scalar _vau1Busy;
    stats::Scalar _vmuBusy;
    stats::Scalar _rowCycles;
    stats::Scalar _tlbCycles;
    stats::Scalar _rowMisses;
    stats::Scalar _perms;
    stats::Scalar _memWords;
    stats::Average _avgVl;
    stats::BreakdownStats accountStats;
};

} // namespace triarch::viram

#endif // TRIARCH_VIRAM_MACHINE_HH
