#include "kernels_viram.hh"

#include <cstring>

#include "kernels/fft.hh"
#include "kernels/word_codec.hh"
#include "sim/bitutil.hh"
#include "sim/logging.hh"
#include "sim/trace.hh"

namespace triarch::viram
{

using kernels::cfloat;

namespace
{

/** Scratch register assignments used by the FFT and weight stages. */
enum Scratch : Vreg
{
    rURe = 4, rUIm = 5, rVRe = 6, rVIm = 7,
    rTwRe = 8, rTwIm = 9,
    rTRe = 10, rTIm = 11,
    rARe = 12, rAIm = 13, rBRe = 14, rBIm = 15,
    rAuxRe = 16, rAuxIm = 17, rWRe = 18, rWIm = 19,
    rTmp0 = 20, rTmp1 = 21, rTmp2 = 22,
    rIo0 = 24, rIo1 = 25, rIo2 = 26, rIo3 = 27,
};

} // namespace

ViramFft128::ViramFft128(ViramMachine &machine) : mach(machine)
{
    constexpr unsigned n = 128;
    const auto tw = kernels::twiddleTable(n);

    // Twiddle planes: per stage [twRe x64][twIm x64], forward and
    // inverse sets, resident in on-chip DRAM.
    twForward = mach.alloc(7 * 2 * 64 * 4, "fft twiddles fwd");
    twInverse = mach.alloc(7 * 2 * 64 * 4, "fft twiddles inv");

    unsigned s = 0;
    for (unsigned len = 2; len <= n; len <<= 1, ++s) {
        const unsigned half = len >> 1;
        const unsigned step = n / len;

        Stage st;
        st.top.resize(64);
        st.bot.resize(64);
        std::vector<std::uint16_t> scat(n);
        std::vector<Word> fwd(128), inv(128);

        unsigned j = 0;
        for (unsigned base = 0; base < n; base += len) {
            for (unsigned k = 0; k < half; ++k, ++j) {
                st.top[j] = static_cast<std::uint16_t>(base + k);
                st.bot[j] = static_cast<std::uint16_t>(base + k + half);
                scat[base + k] = static_cast<std::uint16_t>(j);
                scat[base + k + half] =
                    static_cast<std::uint16_t>(64 + j);
                const cfloat w = tw[k * step];
                fwd[j] = floatToWord(w.real());
                fwd[64 + j] = floatToWord(w.imag());
                inv[j] = floatToWord(w.real());
                inv[64 + j] = floatToWord(-w.imag());
            }
        }
        st.scat0.assign(scat.begin(), scat.begin() + 64);
        st.scat1.assign(scat.begin() + 64, scat.end());
        stages.push_back(std::move(st));

        mach.pokeWords(twForward + s * 512, fwd);
        mach.pokeWords(twInverse + s * 512, inv);
    }

    // The working planes hold data in natural order but the DIT
    // network consumes it bit-reversed: network position p reads
    // plane element bitrev(p). Compose the reversal into the first
    // stage's gather tables so it costs no extra shuffles.
    for (unsigned j = 0; j < 64; ++j) {
        stages[0].top[j] = static_cast<std::uint16_t>(
            reverseBits(stages[0].top[j], 7));
        stages[0].bot[j] = static_cast<std::uint16_t>(
            reverseBits(stages[0].bot[j], 7));
    }
}

void
ViramFft128::loadTimeBlock(Addr base)
{
    mach.setvl(64);
    // Interleaved complex: re at +0, im at +4, 8 bytes per point.
    // Planes hold natural order; transform() applies the reversal.
    mach.vldStride(planeRe0, base, 8);          // re of points 0..63
    mach.vldStride(planeRe1, base + 512, 8);    // re of points 64..127
    mach.vldStride(planeIm0, base + 4, 8);      // im of points 0..63
    mach.vldStride(planeIm1, base + 516, 8);    // im of points 64..127
}

void
ViramFft128::loadPlanes(Addr plane_base)
{
    mach.setvl(64);
    mach.vldUnit(planeRe0, plane_base);
    mach.vldUnit(planeRe1, plane_base + 256);
    mach.vldUnit(planeIm0, plane_base + 512);
    mach.vldUnit(planeIm1, plane_base + 768);
}

void
ViramFft128::storePlanes(Addr plane_base)
{
    mach.setvl(64);
    mach.vstUnit(planeRe0, plane_base);
    mach.vstUnit(planeRe1, plane_base + 256);
    mach.vstUnit(planeIm0, plane_base + 512);
    mach.vstUnit(planeIm1, plane_base + 768);
}

void
ViramFft128::transform(bool inverse)
{
    mach.setvl(64);
    const Addr twBase = inverse ? twInverse : twForward;

    for (unsigned s = 0; s < stages.size(); ++s) {
        const Stage &st = stages[s];
        const Addr twb = twBase + s * 512;

        mach.vldUnit(rTwRe, twb);
        mach.vldUnit(rTwIm, twb + 256);

        // Gather butterfly tops (u) and bottoms (v).
        mach.vperm2(rURe, planeRe0, planeRe1, st.top);
        mach.vperm2(rUIm, planeIm0, planeIm1, st.top);
        mach.vperm2(rVRe, planeRe0, planeRe1, st.bot);
        mach.vperm2(rVIm, planeIm0, planeIm1, st.bot);

        // t = w * v (complex).
        mach.vmulF(rTRe, rTwRe, rVRe);
        mach.vmulF(rTmp0, rTwIm, rVIm);
        mach.vsubF(rTRe, rTRe, rTmp0);
        mach.vmulF(rTIm, rTwRe, rVIm);
        mach.vmulF(rTmp0, rTwIm, rVRe);
        mach.vaddF(rTIm, rTIm, rTmp0);

        // a = u + t, b = u - t.
        mach.vaddF(rARe, rURe, rTRe);
        mach.vaddF(rAIm, rUIm, rTIm);
        mach.vsubF(rBRe, rURe, rTRe);
        mach.vsubF(rBIm, rUIm, rTIm);

        // Scatter results back into the working planes.
        mach.vperm2(planeRe0, rARe, rBRe, st.scat0);
        mach.vperm2(planeRe1, rARe, rBRe, st.scat1);
        mach.vperm2(planeIm0, rAIm, rBIm, st.scat0);
        mach.vperm2(planeIm1, rAIm, rBIm, st.scat1);

        mach.scalarOps(1);  // stage loop bookkeeping
    }

    if (inverse) {
        constexpr float scale = 1.0f / 128.0f;
        mach.vscaleF(planeRe0, planeRe0, scale);
        mach.vscaleF(planeRe1, planeRe1, scale);
        mach.vscaleF(planeIm0, planeIm0, scale);
        mach.vscaleF(planeIm1, planeIm1, scale);
    }
}

Cycles
cornerTurnViram(ViramMachine &machine, const kernels::WordMatrix &src,
                kernels::WordMatrix &dst, unsigned rowBlock)
{
    triarch_assert(rowBlock > 0 && rowBlock <= machine.config().maxVl,
                   "row block must fit a vector register");
    triarch_assert(src.rows % rowBlock == 0,
                   "corner turn needs rows % rowBlock == 0");

    const unsigned srcPitch = src.cols + cornerTurnPadWords;
    const unsigned dstPitch = src.rows + cornerTurnPadWords;

    const Addr srcBase = machine.alloc(
        static_cast<std::uint64_t>(src.rows) * srcPitch * 4, "ct src");
    const Addr dstBase = machine.alloc(
        static_cast<std::uint64_t>(src.cols) * dstPitch * 4, "ct dst");

    for (unsigned r = 0; r < src.rows; ++r) {
        machine.pokeWords(srcBase + static_cast<Addr>(r) * srcPitch * 4,
                          {&src.data[static_cast<std::size_t>(r)
                                     * src.cols],
                           src.cols});
    }

    machine.resetTiming();
    machine.setvl(rowBlock);

    for (unsigned bi = 0; bi < src.rows; bi += rowBlock) {
        trace::TraceScope strip("viram.ct.strip", "viram",
                                &machine.statGroup());
        for (unsigned c = 0; c < src.cols; ++c) {
            const Vreg v = 4 + (c % 8);     // rotate through 8 regs
            const Addr loadAddr = srcBase
                + (static_cast<Addr>(bi) * srcPitch + c) * 4;
            machine.vldStride(v, loadAddr,
                              static_cast<Addr>(srcPitch) * 4);
            const Addr storeAddr = dstBase
                + (static_cast<Addr>(c) * dstPitch + bi) * 4;
            machine.vstUnit(v, storeAddr);
            machine.scalarOps(1);
        }
    }

    const Cycles cycles = machine.completionTime();

    dst = kernels::WordMatrix(src.cols, src.rows);
    for (unsigned c = 0; c < src.cols; ++c) {
        auto row = machine.peekWords(
            dstBase + static_cast<Addr>(c) * dstPitch * 4, src.rows);
        std::memcpy(&dst.data[static_cast<std::size_t>(c) * src.rows],
                    row.data(), src.rows * 4);
    }
    return cycles;
}

namespace
{

/** Poke 128 complex values as re0/re1/im0/im1 planes (64 words each). */
void
pokePlanes(ViramMachine &m, Addr base, const cfloat *x)
{
    std::vector<Word> words(256);
    for (unsigned i = 0; i < 128; ++i) {
        words[(i < 64 ? 0 : 64) + (i % 64)] = floatToWord(x[i].real());
        words[128 + (i < 64 ? 0 : 64) + (i % 64)] =
            floatToWord(x[i].imag());
    }
    m.pokeWords(base, words);
}

/** Read planes back into 128 complex values. */
std::vector<cfloat>
peekPlanes(const ViramMachine &m, Addr base)
{
    auto words = m.peekWords(base, 256);
    std::vector<cfloat> x(128);
    for (unsigned i = 0; i < 128; ++i) {
        x[i] = cfloat(wordToFloat(words[(i < 64 ? 0 : 64) + (i % 64)]),
                      wordToFloat(words[128 + (i < 64 ? 0 : 64)
                                        + (i % 64)]));
    }
    return x;
}

} // namespace

Cycles
cslcViram(ViramMachine &machine, const kernels::CslcConfig &cfg,
          const kernels::CslcInput &in,
          const kernels::CslcWeights &weights,
          kernels::CslcOutput &out)
{
    triarch_assert(cfg.subBandLen == 128,
                   "VIRAM CSLC mapping is built for 128-point sub-bands");

    ViramFft128 fft(machine);

    // Channel time series.
    std::vector<Addr> mainBase(cfg.mainChannels), auxBase(cfg.auxChannels);
    for (unsigned m = 0; m < cfg.mainChannels; ++m) {
        mainBase[m] = machine.alloc(cfg.samples * 8, "cslc main");
        machine.pokeWords(mainBase[m],
                          kernels::encodeComplex(in.main[m]));
    }
    for (unsigned a = 0; a < cfg.auxChannels; ++a) {
        auxBase[a] = machine.alloc(cfg.samples * 8, "cslc aux");
        machine.pokeWords(auxBase[a],
                          kernels::encodeComplex(in.aux[a]));
    }

    // Weight planes: [m][a][band] -> 4 x 64-word planes.
    const unsigned planeBytes = 256 * 4;
    std::vector<std::vector<Addr>> wBase(cfg.mainChannels,
        std::vector<Addr>(cfg.auxChannels));
    for (unsigned m = 0; m < cfg.mainChannels; ++m) {
        for (unsigned a = 0; a < cfg.auxChannels; ++a) {
            wBase[m][a] = machine.alloc(
                static_cast<std::uint64_t>(cfg.subBands) * planeBytes,
                "cslc weights");
            for (unsigned b = 0; b < cfg.subBands; ++b) {
                pokePlanes(machine, wBase[m][a] + b * planeBytes,
                           &weights.w[m][a][b * 128ULL]);
            }
        }
    }

    // Aux spectra scratch (reused per sub-band) and output planes.
    std::vector<Addr> auxSpec(cfg.auxChannels);
    for (unsigned a = 0; a < cfg.auxChannels; ++a)
        auxSpec[a] = machine.alloc(planeBytes, "aux spectrum");
    std::vector<Addr> outBase(cfg.mainChannels);
    for (unsigned m = 0; m < cfg.mainChannels; ++m) {
        outBase[m] = machine.alloc(
            static_cast<std::uint64_t>(cfg.subBands) * planeBytes,
            "cslc out");
    }

    machine.resetTiming();

    for (unsigned b = 0; b < cfg.subBands; ++b) {
        trace::TraceScope subband("viram.cslc.subband", "viram",
                                  &machine.statGroup());
        const Addr off = static_cast<Addr>(b) * cfg.subBandStride * 8;

        // FFT the aux channels and park their spectra in DRAM.
        for (unsigned a = 0; a < cfg.auxChannels; ++a) {
            fft.loadTimeBlock(auxBase[a] + off);
            fft.transform(false);
            fft.storePlanes(auxSpec[a]);
        }

        for (unsigned m = 0; m < cfg.mainChannels; ++m) {
            fft.loadTimeBlock(mainBase[m] + off);
            fft.transform(false);

            // Weight application: planes -= w * auxSpec, per aux
            // channel and per half-plane.
            for (unsigned a = 0; a < cfg.auxChannels; ++a) {
                const Addr wb = wBase[m][a] + b * planeBytes;
                for (unsigned h = 0; h < 2; ++h) {
                    const Vreg mRe = h == 0 ? ViramFft128::planeRe0
                                            : ViramFft128::planeRe1;
                    const Vreg mIm = h == 0 ? ViramFft128::planeIm0
                                            : ViramFft128::planeIm1;
                    machine.vldUnit(rAuxRe, auxSpec[a] + h * 256);
                    machine.vldUnit(rAuxIm, auxSpec[a] + 512 + h * 256);
                    machine.vldUnit(rWRe, wb + h * 256);
                    machine.vldUnit(rWIm, wb + 512 + h * 256);

                    machine.vmulF(rTmp0, rWRe, rAuxRe);
                    machine.vmulF(rTmp1, rWIm, rAuxIm);
                    machine.vsubF(rTmp0, rTmp0, rTmp1);   // t.re
                    machine.vmulF(rTmp1, rWRe, rAuxIm);
                    machine.vmulF(rTmp2, rWIm, rAuxRe);
                    machine.vaddF(rTmp1, rTmp1, rTmp2);   // t.im
                    machine.vsubF(mRe, mRe, rTmp0);
                    machine.vsubF(mIm, mIm, rTmp1);
                }
            }

            fft.transform(true);
            fft.storePlanes(outBase[m] + b * planeBytes);
        }
        machine.scalarOps(2);   // sub-band loop bookkeeping
    }

    const Cycles cycles = machine.completionTime();

    out.main.assign(cfg.mainChannels,
        std::vector<cfloat>(static_cast<std::size_t>(cfg.subBands)
                            * 128));
    for (unsigned m = 0; m < cfg.mainChannels; ++m) {
        for (unsigned b = 0; b < cfg.subBands; ++b) {
            auto block =
                peekPlanes(machine, outBase[m] + b * planeBytes);
            std::copy(block.begin(), block.end(),
                      out.main[m].begin() + static_cast<std::size_t>(b)
                      * 128);
        }
    }
    return cycles;
}

Cycles
beamSteeringViram(ViramMachine &machine, const kernels::BeamConfig &cfg,
                  const kernels::BeamTables &tables,
                  std::vector<std::int32_t> &out)
{
    const unsigned vlen = machine.config().maxVl;

    const Addr coarseBase =
        machine.alloc(cfg.elements * 4ULL, "bs coarse");
    const Addr fineBase = machine.alloc(cfg.elements * 4ULL, "bs fine");
    machine.pokeWords(coarseBase, kernels::encodeI32(tables.calCoarse));
    machine.pokeWords(fineBase, kernels::encodeI32(tables.calFine));

    // Per-direction ramp (i+1)*delta, part of the calibration data.
    const Addr rampBase =
        machine.alloc(cfg.directions * vlen * 4ULL, "bs ramps");
    for (unsigned d = 0; d < cfg.directions; ++d) {
        std::vector<std::int32_t> ramp(vlen);
        for (unsigned i = 0; i < vlen; ++i) {
            ramp[i] = static_cast<std::int32_t>(i + 1)
                      * tables.steerDelta[d];
        }
        machine.pokeWords(rampBase + static_cast<Addr>(d) * vlen * 4,
                          kernels::encodeI32(ramp));
    }

    const Addr outBase =
        machine.alloc(cfg.outputs() * 4ULL, "bs out");

    machine.resetTiming();

    // Two element groups are processed per loop iteration with
    // disjoint register sets (software pipelining): the hand
    // optimization that keeps both vector units busy despite the
    // five-add dependency chain per output.
    constexpr Vreg vCoarseA = 4, vFineA = 5, vTA = 6, vOutA = 7;
    constexpr Vreg vAccA = 8;
    constexpr Vreg vCoarseB = 9, vFineB = 10, vTB = 11, vOutB = 12;
    constexpr Vreg vAccB = 13;

    for (unsigned dw = 0; dw < cfg.dwells; ++dw) {
        trace::TraceScope dwell("viram.bs.dwell", "viram",
                                &machine.statGroup());
        for (unsigned dir = 0; dir < cfg.directions; ++dir) {
            const std::int32_t delta = tables.steerDelta[dir];
            machine.setvl(vlen);
            machine.vldUnit(vAccA,
                            rampBase + static_cast<Addr>(dir) * vlen * 4);
            machine.vaddIs(vAccA, vAccA, tables.steerBase[dir]);
            machine.vaddIs(vAccB, vAccA,
                           static_cast<std::int32_t>(vlen) * delta);

            const Addr rowOut = outBase
                + (static_cast<Addr>(dw) * cfg.directions + dir)
                  * cfg.elements * 4;

            unsigned e0 = 0;
            // Steady state: full pairs of 64-element groups.
            for (; e0 + 2 * vlen <= cfg.elements; e0 += 2 * vlen) {
                const Addr eA = e0, eB = e0 + vlen;
                machine.vldUnit(vCoarseA, coarseBase + eA * 4ULL);
                machine.vldUnit(vCoarseB, coarseBase + eB * 4ULL);
                machine.vldUnit(vFineA, fineBase + eA * 4ULL);
                machine.vldUnit(vFineB, fineBase + eB * 4ULL);
                machine.vaddI(vTA, vCoarseA, vFineA);
                machine.vaddI(vTB, vCoarseB, vFineB);
                machine.vaddI(vTA, vTA, vAccA);
                machine.vaddI(vTB, vTB, vAccB);
                machine.vaddIs(vTA, vTA, tables.dwellOffset[dw]);
                machine.vaddIs(vTB, vTB, tables.dwellOffset[dw]);
                machine.vaddIs(vTA, vTA, tables.bias);
                machine.vaddIs(vTB, vTB, tables.bias);
                machine.vsraI(vOutA, vTA, cfg.shift);
                machine.vsraI(vOutB, vTB, cfg.shift);
                machine.vstUnit(vOutA, rowOut + eA * 4ULL);
                machine.vstUnit(vOutB, rowOut + eB * 4ULL);
                machine.vaddIs(vAccA, vAccA,
                               2 * static_cast<std::int32_t>(vlen)
                               * delta);
                machine.vaddIs(vAccB, vAccB,
                               2 * static_cast<std::int32_t>(vlen)
                               * delta);
                machine.scalarOps(1);
            }
            // Remainder: single groups (possibly a short tail).
            for (; e0 < cfg.elements; e0 += vlen) {
                const unsigned nvl =
                    machine.setvl(std::min(vlen, cfg.elements - e0));
                machine.vldUnit(vCoarseA, coarseBase + e0 * 4ULL);
                machine.vldUnit(vFineA, fineBase + e0 * 4ULL);
                machine.vaddI(vTA, vCoarseA, vFineA);
                machine.vaddI(vTA, vTA, vAccA);
                machine.vaddIs(vTA, vTA, tables.dwellOffset[dw]);
                machine.vaddIs(vTA, vTA, tables.bias);
                machine.vsraI(vOutA, vTA, cfg.shift);
                machine.vstUnit(vOutA, rowOut + e0 * 4ULL);
                machine.setvl(vlen);
                machine.vaddIs(vAccA, vAccA,
                               static_cast<std::int32_t>(nvl) * delta);
                machine.scalarOps(1);
            }
        }
    }

    const Cycles cycles = machine.completionTime();

    out = kernels::decodeI32(machine.peekWords(outBase, cfg.outputs()));
    return cycles;
}

} // namespace triarch::viram
