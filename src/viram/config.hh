/**
 * @file
 * Configuration of the VIRAM machine model (Section 2.1 of the
 * paper): a vector processor integrated with 13 MB of on-chip DRAM.
 *
 * Key implementation facts the model reproduces:
 *  - 256-bit datapath: 8 x 32-bit lanes per vector unit;
 *  - two vector arithmetic units, but vector floating point issues
 *    only on VAU0 (Section 4.3: FP throughput halves on the FFT);
 *  - 8 KB vector register file: 32 registers of 64 x 32-bit elements;
 *  - four address generators: strided accesses sustain 4 words/cycle
 *    while unit-stride accesses sustain 8 words/cycle;
 *  - on-chip DRAM in 2 wings x 4 banks with row activate/precharge
 *    overheads and a TLB (21% of corner-turn cycles in the paper).
 */

#ifndef TRIARCH_VIRAM_CONFIG_HH
#define TRIARCH_VIRAM_CONFIG_HH

#include "sim/types.hh"

namespace triarch::viram
{

/** All VIRAM model parameters; defaults mirror the research chip. */
struct ViramConfig
{
    unsigned clockMhz = 200;

    // Vector datapath.
    unsigned lanes = 8;             //!< 32-bit lanes per vector unit
    unsigned numVregs = 32;
    unsigned maxVl = 64;            //!< elements per vector register
    unsigned addrGens = 4;          //!< strided words per cycle
    unsigned unitStrideWords = 8;   //!< sequential words per cycle

    // Pipeline startup (vector instruction ramp) in cycles.
    Cycles arithStartup = 6;
    Cycles memStartup = 12;         //!< initial load latency, unhidden
    /**
     * Vector chaining: a dependent instruction (on another unit) may
     * start this many cycles after the producer starts delivering
     * elements, instead of waiting for the full vector.
     */
    Cycles chainLatency = 4;

    // On-chip DRAM organization.
    std::uint64_t memBytes = 13 * 1024 * 1024;
    /**
     * Off-chip DRAM reachable by DMA (Section 4.6: applications
     * larger than the on-chip 13 MB must spill and "VIRAM would
     * lose much of its advantage"). 0 disables the off-chip path:
     * allocations beyond the on-chip capacity become fatal.
     */
    std::uint64_t offchipBytes = 0;
    /** Off-chip DMA throughput (Table 1: 2 words/cycle). */
    unsigned offchipWordsPerCycle = 2;
    /** Extra latency charged per vector memory op that goes off chip. */
    Cycles offchipLatency = 40;
    unsigned banks = 8;             //!< 2 wings x 4 banks
    Addr rowBytes = 2048;
    Addr bankInterleaveBytes = 2048;
    Cycles rowMissCycles = 2;       //!< precharge + activate, on-chip
    /**
     * Fraction of bank row-miss time that reaches the critical path;
     * the rest overlaps with transfers on other banks (activation of
     * the next row proceeds while earlier banks stream data).
     */
    double rowOverlapFactor = 0.35;

    // TLB.
    unsigned tlbEntries = 32;
    Addr pageBytes = 32 * 1024;
    Cycles tlbMissPenalty = 20;
};

} // namespace triarch::viram

#endif // TRIARCH_VIRAM_CONFIG_HH
