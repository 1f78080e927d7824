/**
 * @file
 * The memory walk of the PPC/AltiVec and VIRAM machine models
 * (DESIGN D13), named for run metadata.
 *
 * Both machines have one walk, the span walk: way-predicted cache
 * hits, VIRAM interleave-chunk runs and TLB page runs, each credited
 * in bulk and exact by construction. Its witnesses are tests, not a
 * second machine mode: accessFast() against access() and
 * accessRun() against a per-access loop (test_mem_span.cc), and
 * VIRAM's strided walk against its per-element gather walk
 * (test_viram.cc).
 */

#ifndef TRIARCH_MEM_MEM_MODE_HH
#define TRIARCH_MEM_MEM_MODE_HH

#include <cstdint>

namespace triarch::mem
{

/** The memory walk a machine uses; there is one. */
enum class MemModel : std::uint8_t
{
    Span,       //!< span-batched classification with bulk credit
};

/** The walk every machine uses. */
constexpr MemModel
defaultMemModel()
{
    return MemModel::Span;
}

} // namespace triarch::mem

#endif // TRIARCH_MEM_MEM_MODE_HH
