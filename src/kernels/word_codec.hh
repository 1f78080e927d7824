/**
 * @file
 * The host-side word codec of every kernel mapping: how complex
 * samples and int32 values travel through a simulated machine's
 * 32-bit memory words. Complex data is interleaved, (re, im) per
 * point, each part a bit-cast float. Mappings poke their inputs and
 * read their results back through these, so the layout lives in one
 * place; a layout only one mapping uses (VIRAM's split re/im planes,
 * Raw's interleaved beam-steering table pairs) stays with it.
 */

#ifndef TRIARCH_KERNELS_WORD_CODEC_HH
#define TRIARCH_KERNELS_WORD_CODEC_HH

#include <cstdint>
#include <span>
#include <vector>

#include "kernels/fft.hh"
#include "sim/bitutil.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace triarch::kernels
{

/** Encode @p x into @p words (exactly 2 * x.size() of them). */
inline void
encodeComplex(std::span<const cfloat> x, std::span<Word> words)
{
    triarch_assert(words.size() == 2 * x.size(),
                   "complex/word length mismatch");
    for (std::size_t i = 0; i < x.size(); ++i) {
        words[2 * i] = floatToWord(x[i].real());
        words[2 * i + 1] = floatToWord(x[i].imag());
    }
}

/** @p x as interleaved (re, im) words. */
inline std::vector<Word>
encodeComplex(std::span<const cfloat> x)
{
    std::vector<Word> words(2 * x.size());
    encodeComplex(x, words);
    return words;
}

/** The complex values interleaved in @p words. */
inline std::vector<cfloat>
decodeComplex(std::span<const Word> words)
{
    std::vector<cfloat> x(words.size() / 2);
    for (std::size_t i = 0; i < x.size(); ++i) {
        x[i] = cfloat(wordToFloat(words[2 * i]),
                      wordToFloat(words[2 * i + 1]));
    }
    return x;
}

/** @p v as memory words (two's complement, bit for bit). */
inline std::vector<Word>
encodeI32(std::span<const std::int32_t> v)
{
    return {v.begin(), v.end()};
}

/** The int32 values carried by @p words. */
inline std::vector<std::int32_t>
decodeI32(std::span<const Word> words)
{
    return {words.begin(), words.end()};
}

} // namespace triarch::kernels

#endif // TRIARCH_KERNELS_WORD_CODEC_HH
