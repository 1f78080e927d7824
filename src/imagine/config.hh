/**
 * @file
 * Configuration of the Imagine stream processor model (Section 2.2):
 * eight SIMD ALU clusters fed from a 128 KB stream register file,
 * with two memory-stream engines to off-chip SDRAM.
 *
 * Facts the model reproduces:
 *  - 8 clusters x (3 adders + 2 multipliers + 1 divider + 1 comm
 *    unit), lockstep SIMD, 300 MHz -> 14.4 GFLOPS peak;
 *  - SRF of 128 KB allocated in 128-byte blocks; streams must fit or
 *    be strip-mined;
 *  - two memory address generators, one word per cycle each (the
 *    implementation choice that caps the corner turn);
 *  - stream descriptor registers limit how many stream operations
 *    can be in flight, which prevented full software pipelining in
 *    the paper's corner turn (13% unoverlapped kernel cycles);
 *  - kernels are software-pipelined VLIW loops: a prologue of
 *    pipelineDepth iterations precedes the steady-state II.
 */

#ifndef TRIARCH_IMAGINE_CONFIG_HH
#define TRIARCH_IMAGINE_CONFIG_HH

#include "mem/dram.hh"
#include "sim/types.hh"

namespace triarch::imagine
{

/** All Imagine model parameters; defaults mirror the prototype. */
struct ImagineConfig
{
    unsigned clockMhz = 300;

    // Cluster array.
    unsigned clusters = 8;
    unsigned addersPerCluster = 3;
    unsigned multsPerCluster = 2;
    unsigned dividersPerCluster = 1;
    unsigned commPerCluster = 1;    //!< inter-cluster words per cycle
    unsigned srfWordsPerClusterCycle = 4;   //!< SRF port bandwidth

    // Stream register file.
    std::uint64_t srfBytes = 128 * 1024;
    unsigned srfBlockBytes = 128;

    // Memory system: two independent stream engines, one word per
    // cycle each, each with its own SDRAM channel.
    unsigned memEngines = 2;
    std::uint64_t memBytes = 64 * 1024 * 1024;

    /** Cycles the host processor needs to issue one stream/kernel op. */
    Cycles hostIssueCycles = 24;
    /** In-flight stream operations allowed by descriptor registers. */
    unsigned streamDescRegs = 6;

    /** SDRAM channel timing (in 300 MHz core cycles). */
    mem::DramConfig
    dramChannel(unsigned idx) const
    {
        mem::DramConfig cfg;
        cfg.name = "imagine.sdram" + std::to_string(idx);
        cfg.banks = 4;
        cfg.rowBytes = 2048;
        cfg.bankInterleaveBytes = 2048;
        cfg.timing.tCas = 4;
        cfg.timing.tRcd = 8;
        cfg.timing.tRp = 8;
        cfg.timing.busWordsPerCycle = 1;
        return cfg;
    }
};

} // namespace triarch::imagine

#endif // TRIARCH_IMAGINE_CONFIG_HH
