/**
 * @file
 * Configuration of the PowerPC G4 baseline model (Section 4.1): a
 * 1 GHz PowerMac G4 with the AltiVec vector extension, measured in
 * the paper with mach_absolute_time() on real hardware.
 *
 * The model captures what dominates the G4's Table 3 numbers:
 *  - an L1/L2 cache hierarchy in front of a thin front-side bus
 *    (the bus runs at a tenth of the core clock), which caps the
 *    corner turn regardless of AltiVec (Section 4.5);
 *  - a single scalar FPU with multi-cycle dependent latency, which
 *    makes compiled scalar FFT code slow and gives AltiVec its ~6x
 *    CSLC win;
 *  - a 4 x 32-bit AltiVec unit with its own dependent latency,
 *    worth ~2x on beam steering where issue and memory dominate.
 */

#ifndef TRIARCH_PPC_CONFIG_HH
#define TRIARCH_PPC_CONFIG_HH

#include "sim/types.hh"

namespace triarch::ppc
{

/** All G4 model parameters. */
struct PpcConfig
{
    unsigned clockMhz = 1000;

    // Issue model.
    double intIssueWidth = 2.0;     //!< independent int ops per cycle
    Cycles intChainLatency = 1;     //!< dependent int op latency
    Cycles fpChainLatency = 5;      //!< dependent FP latency (1 FPU)
    double fpIssueWidth = 1.0;      //!< independent FP throughput
    Cycles vecChainLatency = 3;     //!< dependent AltiVec latency
    double vecIssueWidth = 1.0;     //!< AltiVec ops per cycle

    /**
     * Effective cost of one scalar FP operation in compiled (not
     * hand-scheduled) kernel code, where operands round-trip through
     * the stack: added on top of the chain latency.
     */
    Cycles fpMemOverhead = 4;

    // Memory hierarchy.
    std::uint64_t l1Bytes = 32 * 1024;
    unsigned l1Assoc = 8;
    std::uint64_t l2Bytes = 256 * 1024;
    unsigned l2Assoc = 8;
    unsigned lineBytes = 32;

    Cycles l1HitCycles = 2;         //!< load-use on an L1 hit
    Cycles l2HitCycles = 9;
    /**
     * Cost of a store that misses L1 but hits L2: the refill
     * occupies the L1/L2 interface and the in-order core stalls
     * behind a full store queue.
     */
    Cycles storeL2HitCycles = 8;
    Cycles memLatency = 110;        //!< DRAM access via the FSB

    /** Front-side bus: words per cycle (100 MHz 64-bit vs 1 GHz). */
    unsigned fsbWordsNum = 4;
    unsigned fsbCyclesDen = 5;

    /**
     * How far (in cycles) the store queue and write buffers let the
     * front-side bus lag behind execution before stores throttle.
     */
    Cycles storeQueueSlack = 300;
};

} // namespace triarch::ppc

#endif // TRIARCH_PPC_CONFIG_HH
