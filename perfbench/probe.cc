#include "probe.hh"

namespace perfbench
{

__attribute__((noinline, aligned(4096))) std::uint64_t
probeWork(const std::uint8_t *table, std::uint64_t seed)
{
    constexpr unsigned kStreams = 8;
    constexpr unsigned kRounds = 150'000;
    constexpr unsigned kBranches = 200'000;

    std::uint64_t h[kStreams];
    for (unsigned j = 0; j < kStreams; ++j)
        h[j] = seed + j * 0x9e3779b97f4a7c15ULL;
    for (unsigned i = 0; i < kRounds; ++i) {
        for (std::uint64_t &x : h) {
            x = x * 6364136223846793005ULL + 1442695040888963407ULL;
            x ^= x >> 29;
        }
    }
    std::uint64_t acc = 0;
    for (std::uint64_t x : h)
        acc ^= x;
    for (unsigned i = 0; i < kBranches; ++i) {
        const std::uint8_t b = table[(i * 7919u) & (kProbeTableBytes - 1)];
        if (b & 1)
            acc += b;
        else
            acc ^= acc << 3;
        if (b & 2)
            acc -= i;
    }
    return acc;
}

} // namespace perfbench
