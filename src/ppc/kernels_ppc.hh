/**
 * @file
 * The three study kernels on the PowerPC G4 baseline, in scalar and
 * AltiVec variants (Sections 4.1, 4.5). Each function computes the
 * real kernel output on host data while reporting every operation
 * and memory access to the PpcMachine timing model:
 *
 *  - corner turn: 32x32 cache-blocked transpose; AltiVec moves
 *    quadwords and transposes 4x4 in registers with vperm, but the
 *    kernel stays front-side-bus bound (AltiVec gains ~nothing);
 *  - CSLC: radix-2 FFT pipeline; compiled scalar FP code pays the
 *    FPU chain latency plus operand traffic, hand-vectorized
 *    AltiVec processes four butterflies at a time (~6x);
 *  - beam steering: table-driven integer loop; AltiVec is ~2x
 *    because issue and memory, not arithmetic, dominate.
 */

#ifndef TRIARCH_PPC_KERNELS_PPC_HH
#define TRIARCH_PPC_KERNELS_PPC_HH

#include <cstdint>
#include <vector>

#include "kernels/beam_steering.hh"
#include "kernels/corner_turn.hh"
#include "kernels/cslc.hh"
#include "ppc/machine.hh"

namespace triarch::ppc
{

/** Corner turn (32x32 blocked); @p altivec selects the vector code,
 *  which needs both sides of @p src to be multiples of 4. */
Cycles cornerTurnPpc(PpcMachine &machine,
                     const kernels::WordMatrix &src,
                     kernels::WordMatrix &dst, bool altivec,
                     unsigned blockEdge = 32);

/** CSLC (radix-2); @p altivec selects the vectorized FFT/weights. */
Cycles cslcPpc(PpcMachine &machine, const kernels::CslcConfig &cfg,
               const kernels::CslcInput &in,
               const kernels::CslcWeights &weights,
               kernels::CslcOutput &out, bool altivec);

/** Beam steering; @p altivec vectorizes the element loop 4-wide. */
Cycles beamSteeringPpc(PpcMachine &machine,
                       const kernels::BeamConfig &cfg,
                       const kernels::BeamTables &tables,
                       std::vector<std::int32_t> &out, bool altivec);

} // namespace triarch::ppc

#endif // TRIARCH_PPC_KERNELS_PPC_HH
