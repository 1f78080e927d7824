/**
 * @file
 * Configuration of the Raw machine model (Section 2.3): 16 tiles in
 * a 4x4 mesh, each a single-issue MIPS-like core with local SRAM,
 * connected by a low-latency static network, with DRAM ports on the
 * chip periphery.
 *
 * Facts the model reproduces:
 *  - 16 single-issue tiles at 300 MHz (peak 4.8 GOPS);
 *  - static network: 3-cycle nearest-neighbour latency, one word
 *    per cycle per link, +1 cycle per additional hop;
 *  - instructions read the network input FIFO ($csti) and write the
 *    static route ($csto) directly as register operands;
 *  - peripheral DRAM ports, one word per cycle each, with row-miss
 *    penalties on sequential streams;
 *  - cached (MIMD) mode: per-tile data cache over global DRAM, used
 *    by the CSLC mapping; misses stall the tile.
 */

#ifndef TRIARCH_RAW_CONFIG_HH
#define TRIARCH_RAW_CONFIG_HH

#include <cstdint>

#include "sim/types.hh"

namespace triarch::raw
{

/** Byte addresses at or above this go to global DRAM (cached). */
constexpr Addr globalBase = 0x10000000;

/**
 * The interpreter loop RawMachine::run() uses, named for run
 * metadata; there is one, the event-driven stepper (DESIGN D12). It
 * skips `now` over spans where every tile sleeps until a known wake
 * cycle and credits the skipped tallies in bulk. Its witness is a
 * test, not a second machine mode: the cycle-at-a-time
 * ReferenceRawMachine (tests/raw_reference.hh) must agree with it
 * bit for bit (test_raw_event.cc).
 */
enum class RawStepper : std::uint8_t
{
    Event,      //!< event-driven: jump to the minimum pending wake
};

/** The loop every RawMachine runs. */
constexpr RawStepper
defaultRawStepper()
{
    return RawStepper::Event;
}

/** All Raw model parameters; defaults mirror the MIT prototype. */
struct RawConfig
{
    unsigned clockMhz = 300;

    unsigned meshWidth = 4;
    unsigned meshHeight = 4;
    unsigned tiles() const { return meshWidth * meshHeight; }

    std::uint64_t sramBytes = 32 * 1024;    //!< per-tile data SRAM
    std::uint64_t globalBytes = 64 * 1024 * 1024;

    // Instruction latencies (results ready N cycles after issue).
    Cycles intLatency = 1;
    Cycles mulLatency = 2;
    Cycles fpLatency = 3;
    Cycles loadLatency = 3;     //!< local SRAM or cache hit

    // Static network.
    Cycles netBaseLatency = 2;  //!< 3 cycles nearest neighbour = 2+1hop
    unsigned fifoCapacity = 8;  //!< tile input FIFO words

    // Dynamic network: packetized (header + data), so per-word
    // latency and occupancy are higher than the static network's.
    Cycles dynBaseLatency = 5;
    Cycles dynSendOccupancy = 2;    //!< header flit + data flit

    // Peripheral DRAM ports (one per tile in this model).
    Cycles portRowMissPenalty = 12;
    Addr portRowBytes = 2048;   //!< a power of two

    // Per-tile data cache over global DRAM.
    std::uint64_t cacheBytes = 32 * 1024;
    unsigned cacheAssoc = 2;
    unsigned cacheLineBytes = 32;
    Cycles cacheMissPenalty = 24;
    Cycles writebackPenalty = 4;

    /** Hard cap on simulated cycles (deadlock guard). */
    Cycles maxCycles = 200'000'000;
};

} // namespace triarch::raw

#endif // TRIARCH_RAW_CONFIG_HH
