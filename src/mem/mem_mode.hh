/**
 * @file
 * Memory-model mode selection shared by the PPC/AltiVec and VIRAM
 * machine models (DESIGN D13).
 *
 * Span mode batches regular access sequences — whole cache lines,
 * DRAM chunk runs, TLB page runs — and credits hit/miss cycles in
 * bulk. Reference mode keeps the original word-at-a-time walks. Both
 * produce bit-identical cycle counts, statistics documents, and D9
 * cycle-account partitions (pinned by the differential tests in
 * test_mem_span.cc), mirroring the RawStepper::Event /
 * RawStepper::Reference contract from D12. A machine reads the
 * process-wide model once, at construction.
 */

#ifndef TRIARCH_MEM_MEM_MODE_HH
#define TRIARCH_MEM_MEM_MODE_HH

#include <atomic>
#include <cstdint>

namespace triarch::mem
{

/** Which memory-model walk a machine uses. */
enum class MemModel : std::uint8_t
{
    Span,       //!< span-batched classification with bulk credit
    Reference,  //!< word-at-a-time reference walk
};

namespace detail
{
inline std::atomic<MemModel> memModelDefault{MemModel::Span};
} // namespace detail

/** The model a newly constructed machine uses. */
inline MemModel
defaultMemModel()
{
    return detail::memModelDefault.load(std::memory_order_relaxed);
}

/**
 * Override the process-wide model (differential tests and
 * micro_host --mem-model; mappings construct their machines inside
 * the caller's override, so this is the hook that reaches them).
 */
inline void
setDefaultMemModel(MemModel m)
{
    detail::memModelDefault.store(m, std::memory_order_relaxed);
}

} // namespace triarch::mem

#endif // TRIARCH_MEM_MEM_MODE_HH
