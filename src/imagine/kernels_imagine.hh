/**
 * @file
 * The three study kernels mapped onto Imagine (Section 3):
 *
 *  - corner turn: multi-row strips streamed through the SRF with
 *    four input streams and one output stream; the clusters reorder
 *    data and the output is written as short blocks with a non-unit
 *    stride (Section 3.1);
 *  - CSLC: per sub-band FFT kernels on the clusters (mixed-radix,
 *    parallelized across clusters with inter-cluster communication —
 *    the paper's ~30% comm overhead), a weight-application kernel,
 *    and IFFT kernels, with all working sets resident in the SRF
 *    (Section 3.2);
 *  - beam steering: table streams loaded into the SRF and consumed
 *    by a short arithmetic kernel; memory-bound at the two words per
 *    cycle the stream engines provide (Sections 3.3, 4.4).
 */

#ifndef TRIARCH_IMAGINE_KERNELS_IMAGINE_HH
#define TRIARCH_IMAGINE_KERNELS_IMAGINE_HH

#include <cstdint>
#include <vector>

#include "imagine/machine.hh"
#include "kernels/beam_steering.hh"
#include "kernels/corner_turn.hh"
#include "kernels/cslc.hh"

namespace triarch::imagine
{

/** Rows per corner-turn strip (4 streams x 2 rows). */
constexpr unsigned cornerTurnStripRows = 8;

/** Corner turn on Imagine; requires rows % 8 == 0 and cols % 8 == 0. */
Cycles cornerTurnImagine(ImagineMachine &machine,
                         const kernels::WordMatrix &src,
                         kernels::WordMatrix &dst);

/** CSLC on Imagine (mixed-radix cluster FFTs). */
Cycles cslcImagine(ImagineMachine &machine,
                   const kernels::CslcConfig &cfg,
                   const kernels::CslcInput &in,
                   const kernels::CslcWeights &weights,
                   kernels::CslcOutput &out);

/**
 * CSLC on Imagine with *independent* per-cluster FFTs — the
 * alternative Section 4.3 describes but the paper did not complete:
 * sub-bands are processed in pairs so the eight clusters each
 * transform a whole 128-point block of their own (no inter-cluster
 * communication; the comm-bound initiation interval drops from 4 to
 * the arithmetic-bound 2).
 */
Cycles cslcImagineIndependent(ImagineMachine &machine,
                              const kernels::CslcConfig &cfg,
                              const kernels::CslcInput &in,
                              const kernels::CslcWeights &weights,
                              kernels::CslcOutput &out);

/**
 * Beam steering on Imagine (table streams + arithmetic kernel). The
 * paper's mapping re-streams the calibration tables from DRAM for
 * every (dwell, direction); @p tablesResident loads them into the SRF
 * once, as a stage of a streaming pipeline would keep them — the
 * placement Section 4.4 estimates at about 2x.
 */
Cycles beamSteeringImagine(ImagineMachine &machine,
                           const kernels::BeamConfig &cfg,
                           const kernels::BeamTables &tables,
                           std::vector<std::int32_t> &out,
                           bool tablesResident = false);

} // namespace triarch::imagine

#endif // TRIARCH_IMAGINE_KERNELS_IMAGINE_HH
