#include "kernels_raw.hh"

#include <array>

#include "kernels/fft.hh"
#include "kernels/word_codec.hh"
#include "raw/assembler.hh"
#include "sim/bitutil.hh"
#include "sim/logging.hh"
#include "sim/trace.hh"

namespace triarch::raw
{

using kernels::cfloat;

// ----------------------------------------------------------------
// Corner turn.
// ----------------------------------------------------------------

namespace
{

/**
 * Tile program for the corner turn: per block, receive 64x64 words
 * from $csti storing each word once into local SRAM at the
 * transposed offset, then load each word once sending it to $csto —
 * the paper's "one load and one store operation for each
 * DRAM-to-DRAM transfer".
 */
std::vector<Instr>
cornerTurnProgram(unsigned num_blocks)
{
    constexpr unsigned edge = cornerTurnBlock;
    Assembler as;

    if (num_blocks == 0) {
        as.halt();
        return as.finish();
    }

    as.li(5, static_cast<std::int32_t>(num_blocks));
    Label blockLoop = as.label();
    as.bind(blockLoop);

    // Phase 1: store $csti words at transposed local offsets.
    // Receive order is row-major (r, c); local layout is c*64 + r.
    as.li(1, 0);                            // r * 4
    as.li(4, edge * 4);                     // bound
    Label outer = as.label();
    as.bind(outer);
    as.move(2, 1);                          // addr = r*4
    as.li(3, 4);                            // 4 groups of 16 columns
    Label inner = as.label();
    as.bind(inner);
    for (unsigned k = 0; k < 16; ++k)
        as.sw(regCsti, 2, static_cast<std::int32_t>(k * edge * 4));
    as.addi(2, 2, 16 * edge * 4);
    as.addi(3, 3, -1);
    as.bne(3, 0, inner);
    as.addi(1, 1, 4);
    as.bne(1, 4, outer);

    // Phase 2: stream the block back out in transposed order.
    as.li(2, 0);
    as.li(4, static_cast<std::int32_t>(edge * edge * 4));
    Label out = as.label();
    as.bind(out);
    for (unsigned k = 0; k < 16; ++k)
        as.lw(regCsto, 2, static_cast<std::int32_t>(k * 4));
    as.addi(2, 2, 64);
    as.bne(2, 4, out);

    as.addi(5, 5, -1);
    as.bne(5, 0, blockLoop);
    as.halt();
    return as.finish();
}

} // namespace

Cycles
cornerTurnRaw(RawMachine &machine, const kernels::WordMatrix &src,
              kernels::WordMatrix &dst)
{
    trace::TraceScope setup("raw.ct.setup", "raw");
    constexpr unsigned edge = cornerTurnBlock;
    triarch_assert(src.rows == src.cols && src.rows % edge == 0,
                   "Raw corner turn needs a square matrix, rows % 64 == 0");
    const unsigned n = src.rows;
    const unsigned grid = n / edge;
    const unsigned tiles = machine.config().tiles();

    const Addr srcBase = machine.allocGlobal(
        static_cast<std::uint64_t>(n) * n * 4, "ct src");
    const Addr dstBase = machine.allocGlobal(
        static_cast<std::uint64_t>(n) * n * 4, "ct dst");
    machine.pokeGlobal(srcBase, src.data);

    // Tile t owns block rows t, t + tiles, ...; its DMA port feeds
    // source block rows in and writes transposed blocks out.
    std::vector<unsigned> blocksPerTile(tiles, 0);
    for (unsigned br = 0; br < grid; ++br) {
        const unsigned t = br % tiles;
        ++blocksPerTile[t];
        for (unsigned bc = 0; bc < grid; ++bc) {
            for (unsigned r = 0; r < edge; ++r) {
                machine.dmaIn(t, t,
                              srcBase + ((static_cast<Addr>(br) * edge
                                          + r) * n + bc * edge) * 4,
                              edge);
            }
            for (unsigned r2 = 0; r2 < edge; ++r2) {
                machine.dmaOut(t,
                               dstBase + ((static_cast<Addr>(bc) * edge
                                           + r2) * n + br * edge) * 4,
                               edge);
            }
        }
    }

    for (unsigned t = 0; t < tiles; ++t) {
        machine.setRoute(t, portEndpoint(t));
        machine.setProgram(t,
                           cornerTurnProgram(blocksPerTile[t] * grid));
    }

    setup.end();
    trace::TraceScope runScope("raw.ct.run", "raw",
                               &machine.statGroup());
    const Cycles cycles = machine.run();
    runScope.end();

    trace::TraceScope readback("raw.ct.readback", "raw");
    dst = kernels::WordMatrix(n, n);
    machine.peekGlobalInto(dstBase, dst.data);
    return cycles;
}

// ----------------------------------------------------------------
// CSLC: one host image, tile program and readback for the cached
// mapping (Table 3) and the stream mode Section 4.3 sketches.
// ----------------------------------------------------------------

void
emitFft128Local(Assembler &as, std::int32_t buf_local,
                std::int32_t tw_local, bool skip_bitrev, bool inverse)
{
    constexpr unsigned n = 128;

    // Bit-reversal: straight-line swaps of complex pairs (skipped
    // when the buffer was filled by emitFillBitrev).
    for (unsigned i = 0; !skip_bitrev && i < n; ++i) {
        const unsigned j = reverseBits(i, 7);
        if (j <= i)
            continue;
        const std::int32_t ia = buf_local
                                + static_cast<std::int32_t>(i) * 8;
        const std::int32_t ja = buf_local
                                + static_cast<std::int32_t>(j) * 8;
        as.lw(6, 0, ia);
        as.lw(7, 0, ia + 4);
        as.lw(8, 0, ja);
        as.lw(9, 0, ja + 4);
        as.sw(8, 0, ia);
        as.sw(9, 0, ia + 4);
        as.sw(6, 0, ja);
        as.sw(7, 0, ja + 4);
    }

    // Butterfly stages. The first two stages have trivial twiddles
    // (1 and -i) and are emitted multiply-free, as hand-optimized
    // radix-2 codes do; later stages use a single data pointer with
    // immediate offsets for the butterfly partner, and the loop
    // bookkeeping is slotted between dependent FP operations to
    // absorb latency.
    for (unsigned len = 2; len <= n; len <<= 1) {
        const unsigned half = len >> 1;
        const unsigned step = n / len;
        const auto off = static_cast<std::int32_t>(half * 8);

        as.li(1, buf_local);                // data pointer
        as.li(5, static_cast<std::int32_t>(n / len));   // group count
        Label groups = as.label();
        as.bind(groups);

        if (len == 2) {
            // w = 1: a = u + v, b = u - v.
            as.lw(6, 1, 0);
            as.lw(7, 1, 4);
            as.lw(8, 1, off);
            as.lw(9, 1, off + 4);
            as.fadd(18, 6, 8);
            as.fadd(19, 7, 9);
            as.fsub(20, 6, 8);
            as.fsub(21, 7, 9);
            as.sw(18, 1, 0);
            as.sw(19, 1, 4);
            as.sw(20, 1, off);
            as.sw(21, 1, off + 4);
            as.addi(1, 1, static_cast<std::int32_t>(len * 8));
        } else if (len == 4) {
            // k = 0: w = 1.
            as.lw(6, 1, 0);
            as.lw(7, 1, 4);
            as.lw(8, 1, off);
            as.lw(9, 1, off + 4);
            as.fadd(18, 6, 8);
            as.fadd(19, 7, 9);
            as.fsub(20, 6, 8);
            as.fsub(21, 7, 9);
            as.sw(18, 1, 0);
            as.sw(19, 1, 4);
            as.sw(20, 1, off);
            as.sw(21, 1, off + 4);
            // k = 1: w = -i (forward) so t = (v.im, -v.re), or
            // w = +i (inverse) so t = (-v.im, v.re).
            as.lw(6, 1, 8);
            as.lw(7, 1, 12);
            as.lw(8, 1, off + 8);
            as.lw(9, 1, off + 12);
            if (!inverse) {
                as.fsub(17, 0, 8);      // t.im = -v.re
                as.fadd(18, 6, 9);      // a.re = u.re + v.im
                as.fadd(19, 7, 17);
                as.fsub(20, 6, 9);
                as.fsub(21, 7, 17);
            } else {
                as.fsub(16, 0, 9);      // t.re = -v.im
                as.fadd(18, 6, 16);
                as.fadd(19, 7, 8);      // a.im = u.im + v.re
                as.fsub(20, 6, 16);
                as.fsub(21, 7, 8);
            }
            as.sw(18, 1, 8);
            as.sw(19, 1, 12);
            as.sw(20, 1, off + 8);
            as.sw(21, 1, off + 12);
            as.addi(1, 1, static_cast<std::int32_t>(len * 8));
        } else {
            as.li(3, tw_local);
            as.li(4, static_cast<std::int32_t>(half));
            Label bfly = as.label();
            as.bind(bfly);
            as.lw(6, 1, 0);     // u.re
            as.lw(7, 1, 4);     // u.im
            as.lw(8, 1, off);   // v.re
            as.lw(9, 1, off + 4);
            as.lw(10, 3, 0);    // w.re
            as.lw(11, 3, 4);    // w.im
            as.fmul(12, 10, 8);
            as.fmul(13, 11, 9);
            as.fmul(14, 10, 9);
            as.fmul(15, 11, 8);
            as.fsub(16, 12, 13);    // t.re
            as.fadd(17, 14, 15);    // t.im
            as.fadd(18, 6, 16);     // a.re
            as.fadd(19, 7, 17);     // a.im
            as.addi(3, 3, static_cast<std::int32_t>(step * 8));
            as.addi(4, 4, -1);
            as.fsub(20, 6, 16);     // b.re
            as.fsub(21, 7, 17);     // b.im
            as.sw(18, 1, 0);
            as.sw(19, 1, 4);
            as.sw(20, 1, off);
            as.sw(21, 1, off + 4);
            as.addi(1, 1, 8);
            as.bne(4, 0, bfly);
            as.addi(1, 1, off);     // skip the partner half
        }

        as.addi(5, 5, -1);
        as.bne(5, 0, groups);
    }
}

namespace
{

// Local SRAM layout for the CSLC tile program.
constexpr std::int32_t twFwdLocal = 0;          // 128 complex
constexpr std::int32_t twInvLocal = 1024;
constexpr std::int32_t bufA0Local = 2048;       // aux0 spectrum
constexpr std::int32_t bufA1Local = 3072;
constexpr std::int32_t bufMLocal = 4096;        // main work buffer
constexpr std::int32_t descLocal = 5120;
constexpr unsigned descWords = 10;

/**
 * Global-memory image of one CSLC interval: channel time series
 * (aux0, aux1, main0, main1), one weight block and one output block
 * per main channel. A weight block holds the main's two weight sets
 * back to back for the cached mapping; for the streamed one it
 * interleaves them per bin (w0, w1), so the DMA order matches the
 * order the program takes weights from $csti. Both layouts fill the
 * same addresses.
 */
struct CslcImage
{
    std::array<Addr, 4> ch;
    std::array<Addr, 2> w;
    std::array<Addr, 2> out;
};

CslcImage
placeCslc(RawMachine &machine, const kernels::CslcConfig &cfg,
          const kernels::CslcInput &in,
          const kernels::CslcWeights &weights, bool streamed)
{
    triarch_assert(cfg.subBandLen == 128,
                   "Raw CSLC mapping is built for 128-point sub-bands");
    triarch_assert(cfg.mainChannels == 2 && cfg.auxChannels == 2,
                   "Raw CSLC mapping assumes 2 main + 2 aux channels");
    CslcImage img;
    for (unsigned c = 0; c < 4; ++c) {
        img.ch[c] = machine.allocGlobal(cfg.samples * 8ULL,
                                        c < 2 ? "aux" : "main");
        machine.pokeGlobal(img.ch[c], kernels::encodeComplex(
                                          c < 2 ? in.aux[c]
                                                : in.main[c - 2]));
    }
    const std::size_t bins = static_cast<std::size_t>(cfg.subBands) * 128;
    for (unsigned m = 0; m < 2; ++m) {
        const auto &w = weights.w[m];
        img.w[m] = machine.allocGlobal(bins * 16, "weights");
        if (!streamed) {
            machine.pokeGlobal(img.w[m], kernels::encodeComplex(w[0]));
            machine.pokeGlobal(img.w[m] + bins * 8,
                               kernels::encodeComplex(w[1]));
            continue;
        }
        std::vector<cfloat> zipped(2 * bins);
        for (std::size_t i = 0; i < bins; ++i) {
            zipped[2 * i] = w[0][i];
            zipped[2 * i + 1] = w[1][i];
        }
        machine.pokeGlobal(img.w[m], kernels::encodeComplex(zipped));
    }
    for (unsigned m = 0; m < 2; ++m)
        img.out[m] = machine.allocGlobal(bins * 8, "out");

    // Twiddle tables (forward and conjugate) into every tile's SRAM.
    std::vector<cfloat> tw = kernels::twiddleTable(128);
    const std::vector<Word> twF = kernels::encodeComplex(tw);
    for (cfloat &w : tw)
        w = std::conj(w);
    const std::vector<Word> twI = kernels::encodeComplex(tw);
    for (unsigned t = 0; t < machine.config().tiles(); ++t) {
        machine.pokeLocal(t, twFwdLocal, twF);
        machine.pokeLocal(t, twInvLocal, twI);
    }
    return img;
}

/**
 * Emit: fill local @p dst with 128 complex values in bit-reversed
 * order, folding the FFT input reordering into the fill (the store
 * offsets are baked in, so no separate reversal pass is needed).
 * Cached: copy from the global address in r1 (straight-line, 4
 * values per group of loads). Streamed: store each word as it
 * arrives on $csti (no loads, no cache misses; the network supplies
 * the data in natural order).
 */
void
emitFillBitrev(Assembler &as, std::int32_t dst, bool streamed)
{
    for (unsigned group = 0; group < 32; ++group) {
        for (unsigned k = 0; k < 8 && !streamed; ++k)
            as.lw(6 + k, 1, static_cast<std::int32_t>(k * 4));
        for (unsigned c = 0; c < 4; ++c) {
            const unsigned i = group * 4 + c;
            const std::int32_t at =
                dst + static_cast<std::int32_t>(reverseBits(i, 7)) * 8;
            as.sw(streamed ? regCsti : 6 + 2 * c, 0, at);
            as.sw(streamed ? regCsti : 6 + 2 * c + 1, 0, at + 4);
        }
        if (!streamed)
            as.addi(1, 1, 32);
    }
}

/**
 * Emit: scale the 256 words of local @p src by the constant in r21
 * (the IFFT 1/N) on their way out. Cached: store them to the global
 * address in r1. Streamed: send them to $csto, for the DMA-out port
 * to write to memory.
 */
void
emitDrainScaled(Assembler &as, std::int32_t src, bool streamed)
{
    as.li(2, src);
    as.li(3, 32);
    Label loop = as.label();
    as.bind(loop);
    if (streamed) {
        for (unsigned k = 0; k < 8; ++k) {
            as.lw(6 + (k % 4), 2, static_cast<std::int32_t>(k * 4));
            as.fmul(regCsto, 6 + (k % 4), 21);
        }
    } else {
        for (unsigned k = 0; k < 8; ++k)
            as.lw(6 + k, 2, static_cast<std::int32_t>(k * 4));
        for (unsigned k = 0; k < 8; ++k)
            as.fmul(6 + k, 6 + k, 21);
        for (unsigned k = 0; k < 8; ++k)
            as.sw(6 + k, 1, static_cast<std::int32_t>(k * 4));
        as.addi(1, 1, 32);
    }
    as.addi(2, 2, 32);
    as.addi(3, 3, -1);
    as.bne(3, 0, loop);
}

/**
 * Emit the weight-application loop: main buffer (local) minus
 * w0*aux0 minus w1*aux1 over 128 bins. Cached, the weights are
 * loaded through the global pointers in r1 and r2; streamed, they
 * arrive through $csti per bin (w0.re, w0.im, w1.re, w1.im) and are
 * consumed as instruction operands.
 */
void
emitWeightApply(Assembler &as, bool streamed)
{
    as.li(3, bufA0Local);
    as.li(4, bufA1Local);
    as.li(5, bufMLocal);
    as.li(18, 128);
    Label loop = as.label();
    as.bind(loop);
    as.lw(6, 5, 0);             // m.re
    as.lw(7, 5, 4);             // m.im
    for (unsigned a = 0; a < 2; ++a) {
        const unsigned wp = 1 + a;      // weight pointer reg
        const unsigned ap = 3 + a;      // aux spectrum pointer reg
        if (streamed) {
            as.move(8, regCsti);
            as.move(9, regCsti);
        } else {
            as.lw(8, wp, 0);    // w.re
            as.lw(9, wp, 4);    // w.im
        }
        as.lw(10, ap, 0);       // a.re
        as.lw(11, ap, 4);       // a.im
        as.fmul(12, 8, 10);
        as.fmul(13, 9, 11);
        as.fmul(14, 8, 11);
        as.fmul(15, 9, 10);
        as.fsub(16, 12, 13);    // t.re
        as.fadd(17, 14, 15);    // t.im
        as.fsub(6, 6, 16);
        as.fsub(7, 7, 17);
    }
    as.sw(6, 5, 0);
    as.sw(7, 5, 4);
    for (unsigned p = streamed ? 3 : 1; p <= 5; ++p)
        as.addi(p, p, 8);
    as.addi(18, 18, -1);
    as.bne(18, 0, loop);
}

/**
 * The program of a tile that owns @p sets sub-band sets: per set,
 * fill and transform both aux channels, then per main channel fill,
 * transform, apply the weights, inverse-transform and drain. Cached,
 * each set's global addresses come from its descriptor at
 * descLocal; streamed, the tile's DMA ports supply and take the
 * data in program order.
 */
std::vector<Instr>
cslcTileProgram(unsigned sets, bool streamed)
{
    Assembler as;
    if (sets == 0) {
        as.halt();
        return as.finish();
    }
    if (streamed) {
        as.li(23, static_cast<std::int32_t>(sets));
    } else {
        as.li(22, descLocal);
        as.li(23, descLocal
                  + static_cast<std::int32_t>(sets * descWords * 4));
    }
    Label subLoop = as.label();
    as.bind(subLoop);

    // Fill a buffer (cached: from the address in descriptor word
    // `slot`) and transform it.
    const auto fill = [&](std::int32_t buf, std::int32_t slot) {
        if (!streamed)
            as.lw(1, 22, slot * 4);
        emitFillBitrev(as, buf, streamed);
        emitFft128Local(as, buf, twFwdLocal, true);
    };
    fill(bufA0Local, 0);
    fill(bufA1Local, 1);
    for (std::int32_t m = 0; m < 2; ++m) {
        fill(bufMLocal, 2 + m);
        if (!streamed) {
            as.lw(1, 22, 16 + m * 8);
            as.lw(2, 22, 20 + m * 8);
        }
        emitWeightApply(as, streamed);
        emitFft128Local(as, bufMLocal, twInvLocal, false, true);
        as.li(21, static_cast<std::int32_t>(
                      floatToWord(1.0f / 128.0f)));
        if (!streamed)
            as.lw(1, 22, 32 + m * 4);
        emitDrainScaled(as, bufMLocal, streamed);
    }

    if (streamed) {
        as.addi(23, 23, -1);
        as.bne(23, 0, subLoop);
    } else {
        as.addi(22, 22, descWords * 4);
        as.bne(22, 23, subLoop);
    }
    as.halt();
    return as.finish();
}

/**
 * Both CSLC mappings. Sub-band sets are dealt to tiles round-robin;
 * with more than one processing interval, sets from consecutive
 * intervals are handed out round-robin, as a continuously arriving
 * input queue would be (Section 4.3's load-balance argument).
 */
RawCslcResult
runCslc(RawMachine &machine, const kernels::CslcConfig &cfg,
        const kernels::CslcInput &in, const kernels::CslcWeights &weights,
        kernels::CslcOutput &out, unsigned intervals, bool streamed)
{
    trace::TraceScope setup(
        streamed ? "raw.cslc_stream.setup" : "raw.cslc.setup", "raw");
    triarch_assert(intervals >= 1, "need at least one interval");
    const CslcImage img = placeCslc(machine, cfg, in, weights, streamed);
    const unsigned tiles = machine.config().tiles();
    const std::size_t bins = static_cast<std::size_t>(cfg.subBands) * 128;

    const unsigned totalSets = intervals * cfg.subBands;
    unsigned maxSets = 0;
    for (unsigned t = 0; t < tiles; ++t) {
        if (streamed)
            machine.setRoute(t, portEndpoint(t));
        std::vector<Word> desc;
        unsigned sets = 0;
        for (unsigned sIdx = t; sIdx < totalSets;
             sIdx += tiles, ++sets) {
            const unsigned b = sIdx % cfg.subBands;
            const Addr blockOff =
                static_cast<Addr>(b) * cfg.subBandStride * 8;
            const Addr bandOff = static_cast<Addr>(b) * 128 * 8;
            if (streamed) {
                // DMA order must match program consumption order.
                machine.dmaIn(t, t, img.ch[0] + blockOff, 256);
                machine.dmaIn(t, t, img.ch[1] + blockOff, 256);
                for (unsigned m = 0; m < 2; ++m) {
                    machine.dmaIn(t, t, img.ch[2 + m] + blockOff, 256);
                    machine.dmaIn(t, t, img.w[m] + 2 * bandOff, 512);
                    machine.dmaOut(t, img.out[m] + bandOff, 256);
                }
                continue;
            }
            for (const Addr ch : img.ch)
                desc.push_back(static_cast<Word>(ch + blockOff));
            for (const Addr w : img.w) {
                desc.push_back(static_cast<Word>(w + bandOff));
                desc.push_back(static_cast<Word>(w + bins * 8 + bandOff));
            }
            for (const Addr o : img.out)
                desc.push_back(static_cast<Word>(o + bandOff));
        }
        maxSets = std::max(maxSets, sets);
        if (!desc.empty())
            machine.pokeLocal(t, descLocal, desc);
        machine.setProgram(t, cslcTileProgram(sets, streamed));
    }

    setup.end();
    trace::TraceScope runScope(
        streamed ? "raw.cslc_stream.run" : "raw.cslc.run", "raw",
        &machine.statGroup());
    const Cycles cycles = machine.run();
    runScope.end();

    trace::TraceScope readback(
        streamed ? "raw.cslc_stream.readback" : "raw.cslc.readback",
        "raw");
    RawCslcResult result;
    result.cycles = cycles;
    // Section 4.3: report perfect-load-balance extrapolation; in a
    // real system sub-band sets arrive continuously.
    const double meanSets = static_cast<double>(totalSets) / tiles;
    result.balancedCycles = static_cast<Cycles>(
        static_cast<double>(cycles) * meanSets / maxSets);
    std::uint64_t idle = 0;
    for (unsigned t = 0; t < tiles; ++t)
        idle += machine.tileIdleAfterHalt(t);
    result.idleFraction = static_cast<double>(idle)
                          / (static_cast<double>(tiles) * cycles);

    out.main.clear();
    for (const Addr o : img.out) {
        out.main.push_back(
            kernels::decodeComplex(machine.peekGlobal(o, 2 * bins)));
    }
    return result;
}

} // namespace

RawCslcResult
cslcRaw(RawMachine &machine, const kernels::CslcConfig &cfg,
        const kernels::CslcInput &in,
        const kernels::CslcWeights &weights, kernels::CslcOutput &out,
        unsigned intervals)
{
    return runCslc(machine, cfg, in, weights, out, intervals, false);
}

RawCslcResult
cslcRawStreamed(RawMachine &machine, const kernels::CslcConfig &cfg,
                const kernels::CslcInput &in,
                const kernels::CslcWeights &weights,
                kernels::CslcOutput &out)
{
    return runCslc(machine, cfg, in, weights, out, 1, true);
}

// ----------------------------------------------------------------
// Beam steering.
// ----------------------------------------------------------------

Cycles
beamSteeringRaw(RawMachine &machine, const kernels::BeamConfig &cfg,
                const kernels::BeamTables &tables,
                std::vector<std::int32_t> &out)
{
    trace::TraceScope setup("raw.bs.setup", "raw");
    const unsigned tiles = machine.config().tiles();

    // Calibration tables laid out interleaved (coarse, fine) pairs
    // so one DMA stream per tile supplies both operands in $csti
    // order.
    const Addr tabBase =
        machine.allocGlobal(cfg.elements * 8ULL, "bs tables");
    {
        std::vector<std::int32_t> pairs(cfg.elements * 2);
        for (unsigned e = 0; e < cfg.elements; ++e) {
            pairs[2 * e] = tables.calCoarse[e];
            pairs[2 * e + 1] = tables.calFine[e];
        }
        machine.pokeGlobal(tabBase, kernels::encodeI32(pairs));
    }
    const Addr outBase =
        machine.allocGlobal(cfg.outputs() * 4ULL, "bs out");

    const unsigned configs = cfg.dwells * cfg.directions;
    for (unsigned t = 0; t < tiles; ++t) {
        const unsigned e0 = static_cast<unsigned>(
            static_cast<std::uint64_t>(t) * cfg.elements / tiles);
        const unsigned e1 = static_cast<unsigned>(
            static_cast<std::uint64_t>(t + 1) * cfg.elements / tiles);
        const unsigned count = e1 - e0;

        machine.setRoute(t, portEndpoint(t));

        // Per-(dwell, direction) constants in local SRAM, in the
        // same order the DMA segments stream.
        std::vector<std::int32_t> cfgTable;
        for (unsigned dw = 0; dw < cfg.dwells; ++dw) {
            for (unsigned dir = 0; dir < cfg.directions; ++dir) {
                cfgTable.push_back(tables.steerBase[dir]
                                   + static_cast<std::int32_t>(e0)
                                     * tables.steerDelta[dir]);
                cfgTable.push_back(tables.steerDelta[dir]);
                cfgTable.push_back(tables.dwellOffset[dw]);
                cfgTable.push_back(tables.bias);

                // Tiles left without elements (fewer elements than
                // tiles) stream nothing and just halt.
                if (count > 0) {
                    machine.dmaIn(t, t, tabBase + e0 * 8ULL,
                                  count * 2);
                    machine.dmaOut(t,
                                   outBase
                                   + ((static_cast<Addr>(dw)
                                       * cfg.directions + dir)
                                      * cfg.elements + e0) * 4,
                                   count);
                }
            }
        }
        machine.pokeLocal(t, 0, kernels::encodeI32(cfgTable));

        Assembler as;
        if (count == 0) {
            as.halt();
            machine.setProgram(t, as.finish());
            continue;
        }

        as.li(6, 0);                                // config pointer
        as.li(7, static_cast<std::int32_t>(configs * 16));
        Label cfgLoop = as.label();
        as.bind(cfgLoop);
        as.lw(1, 6, 0);     // acc (pre-offset for this tile's slice)
        as.lw(2, 6, 4);     // delta
        as.lw(3, 6, 8);     // dwell offset
        as.lw(4, 6, 12);    // bias

        // The six-operation output body: 5 adds + 1 shift, with
        // both table operands read straight from the network and
        // the result sent straight back out (no loads or stores).
        auto body = [&] {
            as.add(1, 1, 2);                // add 1: acc += delta
            as.add(5, regCsti, regCsti);    // add 2: coarse + fine
            as.add(5, 5, 1);                // add 3: += acc
            as.add(5, 5, 3);                // add 4: += dwell offset
            as.add(5, 5, 4);                // add 5: += bias
            as.sra(regCsto, 5, cfg.shift);  // shift and send
        };

        const unsigned unroll = 4;
        const unsigned groups = count / unroll;
        if (groups > 0) {
            as.li(8, static_cast<std::int32_t>(groups));
            Label elemLoop = as.label();
            as.bind(elemLoop);
            for (unsigned k = 0; k < unroll; ++k)
                body();
            as.addi(8, 8, -1);
            as.bne(8, 0, elemLoop);
        }
        for (unsigned k = 0; k < count % unroll; ++k)
            body();

        as.addi(6, 6, 16);
        as.bne(6, 7, cfgLoop);
        as.halt();
        machine.setProgram(t, as.finish());
    }

    setup.end();
    trace::TraceScope runScope("raw.bs.run", "raw",
                               &machine.statGroup());
    const Cycles cycles = machine.run();
    runScope.end();

    trace::TraceScope readback("raw.bs.readback", "raw");
    out = kernels::decodeI32(machine.peekGlobal(outBase, cfg.outputs()));
    return cycles;
}

} // namespace triarch::raw
