/**
 * @file
 * A zero-initialized byte buffer backed by its own anonymous mmap.
 * For the megabytes the machine models use as global DRAM, a
 * std::vector<uint8_t>(n, 0) touches (faults and clears) every page
 * up front, while a fresh anonymous mapping is made of pages the
 * kernel already guarantees to be zero, so pages are only faulted in
 * when the simulated program actually reaches them. Models allocate
 * far more DRAM than any single workload touches, which makes
 * machine construction (and repeated construction under the
 * host-time measurement contract) effectively free.
 *
 * calloc cannot keep that promise. After the first large free,
 * glibc raises its dynamic mmap threshold (up to 32 MiB on 64-bit),
 * so later allocations below it — VIRAM's 13 MiB DRAM — come from
 * recycled heap memory that calloc must memset in full, costing a
 * clear of the whole image per construction and keeping every page
 * resident. Mapping directly bypasses the allocator entirely.
 *
 * The price of a fresh mapping is one page fault per 4 KiB the
 * program first touches, which on a virtualized host costs several
 * times a memset of the same page. Machines therefore announce each
 * large allocation with adviseDense(): a region the host is about to
 * fill (a paper-size matrix) is backed by transparent huge pages
 * where the kernel offers them, one fault per 2 MiB. Small
 * allocations keep 4 KiB pages, so a machine that touches little
 * still pays for little.
 *
 * ASan's heap redzones do not cover mmap'd memory, so an overrun of
 * this buffer is not caught by the sanitizer. The machines guard it
 * with their own triarch_assert bounds checks on every host poke and
 * peek, every simulated load and store, every Raw DMA segment (when
 * it is queued: dmaIn/dmaOut take its byte length in 64 bits) and
 * every Imagine stream load and store; keep them.
 */

#ifndef TRIARCH_SIM_ZERO_BUFFER_HH
#define TRIARCH_SIM_ZERO_BUFFER_HH

#include <sys/mman.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "sim/logging.hh"

namespace triarch
{

/** A fixed-size, lazily-faulted, zero-filled byte buffer. */
class ZeroBuffer
{
  public:
    explicit ZeroBuffer(std::size_t n) : bytes(n)
    {
        // mmap rejects a zero length; a one-byte request maps one
        // page, so data() stays non-null for empty buffers too.
        void *p = mmap(nullptr, mappedBytes(), PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (p == MAP_FAILED)
            triarch_fatal("failed to allocate ", n, " byte buffer");
        buf = static_cast<std::uint8_t *>(p);
    }

    ~ZeroBuffer()
    {
        if (buf != nullptr)
            munmap(buf, mappedBytes());
    }

    ZeroBuffer(const ZeroBuffer &) = delete;
    ZeroBuffer &operator=(const ZeroBuffer &) = delete;

    ZeroBuffer(ZeroBuffer &&other) noexcept
        : bytes(other.bytes), buf(other.buf)
    {
        other.bytes = 0;
        other.buf = nullptr;
    }

    /**
     * Hint that [offset, offset + len) will be written densely. A
     * range of at least one huge page is rounded out to huge-page
     * boundaries (clamped to the buffer) and advised as huge-page
     * backed; shorter ranges are left alone. Contents are unchanged,
     * and the hint is best effort: a kernel without transparent huge
     * pages ignores it.
     */
    void adviseDense(std::size_t offset, std::size_t len)
    {
        constexpr std::uintptr_t huge = std::uintptr_t{2} << 20;
        if (len < huge)
            return;
        const auto base = reinterpret_cast<std::uintptr_t>(buf);
        const std::uintptr_t lo =
            std::max(base, (base + offset) & ~(huge - 1));
        const std::uintptr_t hi = std::min(
            base + bytes, (base + offset + len + huge - 1) & ~(huge - 1));
        if (lo < hi)
            madvise(reinterpret_cast<void *>(lo), hi - lo, MADV_HUGEPAGE);
    }

    std::uint8_t *data() { return buf; }
    const std::uint8_t *data() const { return buf; }
    std::size_t size() const { return bytes; }

  private:
    std::size_t mappedBytes() const { return bytes ? bytes : 1; }

    std::size_t bytes;
    std::uint8_t *buf = nullptr;
};

} // namespace triarch

#endif // TRIARCH_SIM_ZERO_BUFFER_HH
