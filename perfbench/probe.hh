/**
 * @file
 * The speed probe's timed work (see SpeedProbe in main.cc). It lives in
 * a file of its own, includes nothing from the simulator and is aligned
 * to a page, so its machine code and its placement relative to page,
 * cache-line and fetch-block boundaries stay the same whatever the
 * rest of the program looks like. The code's speed on the same host
 * swung by ~1.5x between builds that only changed main.cc while the
 * loops were compiled inside it.
 */

#ifndef PERFBENCH_PROBE_HH
#define PERFBENCH_PROBE_HH

#include <cstddef>
#include <cstdint>

namespace perfbench
{

/** Bytes of the table probeWork() walks; a power of two. */
constexpr std::size_t kProbeTableBytes = 64u << 10;

/**
 * Work that keeps a core's execution ports and branch predictor busy:
 * 150k rounds of eight independent multiply-xorshift streams, then 200k
 * steps over @p table (kProbeTableBytes random bytes) with two
 * data-dependent branches per step. Returns a checksum, so that the
 * work cannot be dropped; @p seed varies the data, not the work.
 */
std::uint64_t probeWork(const std::uint8_t *table, std::uint64_t seed);

} // namespace perfbench

#endif // PERFBENCH_PROBE_HH
