#include "corner_turn.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "sim/rng.hh"

namespace triarch::kernels
{

void
fillMatrix(WordMatrix &m, std::uint64_t seed)
{
    Rng rng(seed);
    for (auto &w : m.data)
        w = static_cast<Word>(rng.next());
}

void
transposeNaive(const WordMatrix &src, WordMatrix &dst)
{
    triarch_assert(dst.rows == src.cols && dst.cols == src.rows,
                   "transpose shape mismatch");
    for (unsigned r = 0; r < src.rows; ++r) {
        for (unsigned c = 0; c < src.cols; ++c)
            dst.at(c, r) = src.at(r, c);
    }
}

void
transposeBlocked(const WordMatrix &src, WordMatrix &dst,
                 unsigned blockSize)
{
    triarch_assert(dst.rows == src.cols && dst.cols == src.rows,
                   "transpose shape mismatch");
    triarch_assert(blockSize > 0, "block size must be positive");

    for (unsigned br = 0; br < src.rows; br += blockSize) {
        const unsigned rEnd = std::min(br + blockSize, src.rows);
        for (unsigned bc = 0; bc < src.cols; bc += blockSize) {
            const unsigned cEnd = std::min(bc + blockSize, src.cols);
            for (unsigned r = br; r < rEnd; ++r) {
                for (unsigned c = bc; c < cEnd; ++c)
                    dst.at(c, r) = src.at(r, c);
            }
        }
    }
}

bool
isTransposeOf(const WordMatrix &src, const WordMatrix &dst)
{
    if (dst.rows != src.cols || dst.cols != src.rows)
        return false;
    // Tiled comparison: a row-major sweep of one matrix strides the
    // other by a full row per element, which misses cache on every
    // access for the study's 1024x1024 matrices. Comparing tile by
    // tile keeps both sides' lines resident. Within a tile the word
    // differences OR together, so the compare branches once per
    // tile rather than once per word.
    constexpr unsigned blk = 16;
    for (unsigned rb = 0; rb < src.rows; rb += blk) {
        const unsigned rEnd = std::min(src.rows, rb + blk);
        for (unsigned cb = 0; cb < src.cols; cb += blk) {
            const unsigned cEnd = std::min(src.cols, cb + blk);
            Word diff = 0;
            for (unsigned r = rb; r < rEnd; ++r) {
                for (unsigned c = cb; c < cEnd; ++c)
                    diff |= dst.at(c, r) ^ src.at(r, c);
            }
            if (diff != 0)
                return false;
        }
    }
    return true;
}

} // namespace triarch::kernels
