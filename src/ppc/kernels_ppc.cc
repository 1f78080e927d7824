#include "kernels_ppc.hh"

#include <algorithm>

#include "kernels/fft.hh"
#include "sim/bitutil.hh"
#include "sim/logging.hh"
#include "sim/trace.hh"

namespace triarch::ppc
{

using kernels::cfloat;

namespace
{

// Synthetic address map for the timing model (the data itself lives
// in host arrays): regions spaced far apart so they never alias.
constexpr Addr srcRegion = 0x0000'0000;
constexpr Addr dstRegion = 0x0100'0000;
constexpr Addr auxRegion = 0x0200'0000;
constexpr Addr weightRegion = 0x0300'0000;
constexpr Addr outRegion = 0x0400'0000;
constexpr Addr scratchRegion = 0x0500'0000;
constexpr Addr twiddleRegion = 0x0501'0000;

} // namespace

Cycles
cornerTurnPpc(PpcMachine &machine, const kernels::WordMatrix &src,
              kernels::WordMatrix &dst, bool altivec,
              unsigned blockEdge)
{
    triarch_assert(blockEdge >= 4 && blockEdge % 4 == 0,
                   "block edge must be a positive multiple of 4");
    const unsigned rows = src.rows, cols = src.cols;
    // The 4x4 register transposes below never clip at the edge.
    triarch_assert(!altivec || (rows % 4 == 0 && cols % 4 == 0),
                   "AltiVec corner turn needs sides that are multiples "
                   "of 4, got ", rows, "x", cols);
    machine.resetTiming();

    auto srcAddr = [&](unsigned r, unsigned c) {
        return srcRegion + (static_cast<Addr>(r) * cols + c) * 4;
    };
    auto dstAddr = [&](unsigned r, unsigned c) {
        return dstRegion + (static_cast<Addr>(r) * rows + c) * 4;
    };

    for (unsigned br = 0; br < rows; br += blockEdge) {
        trace::TraceScope span("ppc.ct.block_row", "ppc",
                               &machine.statGroup());
        const unsigned rEnd = std::min(br + blockEdge, rows);
        for (unsigned bc = 0; bc < cols; bc += blockEdge) {
            const unsigned cEnd = std::min(bc + blockEdge, cols);
            if (!altivec) {
                for (unsigned r = br; r < rEnd; ++r) {
                    for (unsigned c = bc; c < cEnd; ++c) {
                        machine.load(srcAddr(r, c));
                        machine.store(dstAddr(c, r));
                        machine.intOps(2);      // index arithmetic
                    }
                    machine.intOps(2);          // loop overhead
                }
            } else {
                // 4x4 register transposes: 4 quadword loads, a
                // vperm merge network, 4 quadword stores.
                for (unsigned r = br; r < rEnd; r += 4) {
                    for (unsigned c = bc; c < cEnd; c += 4) {
                        for (unsigned i = 0; i < 4; ++i)
                            machine.vecLoad(srcAddr(r + i, c));
                        machine.vecOps(8);      // vmrgh/vmrgl network
                        for (unsigned i = 0; i < 4; ++i)
                            machine.vecStore(dstAddr(c + i, r));
                        machine.intOps(4);
                    }
                    machine.intOps(2);
                }
            }
        }
    }

    // The model walk above only times the accesses; the data moves
    // here, once, in cache-sized tiles, so the host copy neither
    // interleaves with the walk nor strides a full column per word.
    dst = kernels::WordMatrix(cols, rows);
    kernels::transposeBlocked(src, dst, 8);
    return machine.cycles();
}

namespace
{

/**
 * Instrumented in-place radix-2 FFT over @p data (128 complex
 * values parked at @p base in the timing model's address space).
 * Scalar mode models compiled C (operands through memory, FPU
 * chains); AltiVec mode models the hand-vectorized four-butterfly
 * inner loop.
 */
void
instrumentedFft(PpcMachine &machine, std::vector<cfloat> &data,
                Addr base, bool inverse, bool altivec)
{
    const unsigned n = static_cast<unsigned>(data.size());
    static const auto twiddles = kernels::twiddleTable(128);
    triarch_assert(n == 128, "instrumented FFT is 128-point");

    auto elemAddr = [base](unsigned i) { return base + i * 8; };

    // Bit-reversal permutation.
    for (unsigned i = 0; i < n; ++i) {
        const unsigned j = reverseBits(i, 7);
        if (j <= i)
            continue;
        std::swap(data[i], data[j]);
        machine.load(elemAddr(i));
        machine.load(elemAddr(i) + 4);
        machine.load(elemAddr(j));
        machine.load(elemAddr(j) + 4);
        machine.store(elemAddr(i));
        machine.store(elemAddr(i) + 4);
        machine.store(elemAddr(j));
        machine.store(elemAddr(j) + 4);
        machine.intOps(4);
    }

    for (unsigned len = 2; len <= n; len <<= 1) {
        const unsigned half = len >> 1;
        const unsigned step = n / len;
        for (unsigned basep = 0; basep < n; basep += len) {
            for (unsigned k = 0; k < half; ++k) {
                const cfloat w0 = twiddles[k * step];
                const cfloat w = inverse ? std::conj(w0) : w0;
                const unsigned iu = basep + k;
                const unsigned iv = iu + half;
                const cfloat t = w * data[iv];
                const cfloat u = data[iu];
                data[iu] = u + t;
                data[iv] = u - t;

                if (!altivec) {
                    machine.load(elemAddr(iu));
                    machine.load(elemAddr(iu) + 4);
                    machine.load(elemAddr(iv));
                    machine.load(elemAddr(iv) + 4);
                    machine.load(twiddleRegion + k * step * 8);
                    machine.load(twiddleRegion + k * step * 8 + 4);
                    machine.fpOpsCompiled(10);
                    machine.store(elemAddr(iu));
                    machine.store(elemAddr(iu) + 4);
                    machine.store(elemAddr(iv));
                    machine.store(elemAddr(iv) + 4);
                    machine.intOps(5);
                } else if (k % 4 == 0) {
                    // Four butterflies per AltiVec iteration; short
                    // stages (half < 4) pay extra element shuffles.
                    machine.vecLoad(elemAddr(iu));
                    machine.vecLoad(elemAddr(iu) + 16);
                    machine.vecLoad(elemAddr(iv));
                    machine.vecLoad(elemAddr(iv) + 16);
                    machine.vecLoad(twiddleRegion + k * step * 8);
                    machine.vecLoad(twiddleRegion + k * step * 8 + 16);
                    // Hand-vectorized code interleaves independent
                    // butterfly groups, hiding the vector latency.
                    machine.vecOps(10);
                    machine.vecOps(half < 4 ? 6 : 4);   // shuffles
                    machine.vecStore(elemAddr(iu));
                    machine.vecStore(elemAddr(iu) + 16);
                    machine.vecStore(elemAddr(iv));
                    machine.vecStore(elemAddr(iv) + 16);
                    machine.intOps(3);
                }
            }
        }
    }

    if (inverse) {
        const float scale = 1.0f / n;
        for (auto &v : data)
            v *= scale;
        if (!altivec) {
            for (unsigned i = 0; i < n; ++i) {
                machine.load(elemAddr(i));
                machine.load(elemAddr(i) + 4);
                machine.fpOpsCompiled(2);
                machine.store(elemAddr(i));
                machine.store(elemAddr(i) + 4);
                machine.intOps(2);
            }
        } else {
            for (unsigned i = 0; i < n; i += 2) {
                machine.vecLoad(elemAddr(i));
                machine.vecOps(1);
                machine.vecStore(elemAddr(i));
                machine.intOps(1);
            }
        }
    }
}

} // namespace

Cycles
cslcPpc(PpcMachine &machine, const kernels::CslcConfig &cfg,
        const kernels::CslcInput &in,
        const kernels::CslcWeights &weights, kernels::CslcOutput &out,
        bool altivec)
{
    triarch_assert(cfg.subBandLen == 128,
                   "PPC CSLC mapping is built for 128-point sub-bands");
    machine.resetTiming();

    out.main.assign(cfg.mainChannels,
        std::vector<cfloat>(static_cast<std::size_t>(cfg.subBands)
                            * 128));

    const unsigned nch = cfg.channels();
    auto chanAddr = [&](unsigned ch, unsigned sample) {
        return auxRegion + (static_cast<Addr>(ch) * cfg.samples
                            + sample) * 8;
    };

    for (unsigned b = 0; b < cfg.subBands; ++b) {
        trace::TraceScope span("ppc.cslc.subband", "ppc",
                               &machine.statGroup());
        const unsigned off = b * cfg.subBandStride;

        // Extract + transform every channel into scratch spectra.
        std::vector<std::vector<cfloat>> spectra(nch);
        for (unsigned ch = 0; ch < nch; ++ch) {
            const auto &series =
                ch < cfg.auxChannels ? in.aux[ch]
                                     : in.main[ch - cfg.auxChannels];
            spectra[ch].assign(series.begin() + off,
                               series.begin() + off + 128);
            // Copy into the FFT scratch buffer.
            const Addr scratch = scratchRegion + ch * 0x1000;
            for (unsigned i = 0; i < 128; ++i) {
                if (!altivec) {
                    machine.load(chanAddr(ch, off + i));
                    machine.load(chanAddr(ch, off + i) + 4);
                    machine.store(scratch + i * 8);
                    machine.store(scratch + i * 8 + 4);
                    machine.intOps(2);
                } else if (i % 2 == 0) {
                    machine.vecLoad(chanAddr(ch, off + i));
                    machine.vecStore(scratch + i * 8);
                    machine.intOps(1);
                }
            }
            instrumentedFft(machine, spectra[ch],
                            scratchRegion + ch * 0x1000, false,
                            altivec);
        }

        for (unsigned m = 0; m < cfg.mainChannels; ++m) {
            auto &spec = spectra[cfg.auxChannels + m];
            const Addr mBase =
                scratchRegion + (cfg.auxChannels + m) * 0x1000;

            // Weight application.
            for (unsigned k = 0; k < 128; ++k) {
                for (unsigned a = 0; a < cfg.auxChannels; ++a) {
                    spec[k] -= weights.w[m][a][b * 128ULL + k]
                               * spectra[a][k];
                }
                const Addr wAddr = weightRegion
                    + ((static_cast<Addr>(m) * 2) * cfg.subBands + b)
                      * 1024 + k * 8;
                if (!altivec) {
                    machine.load(mBase + k * 8);
                    machine.load(mBase + k * 8 + 4);
                    for (unsigned a = 0; a < 2; ++a) {
                        machine.load(wAddr + a * 0x80000);
                        machine.load(wAddr + a * 0x80000 + 4);
                        machine.load(scratchRegion + a * 0x1000
                                     + k * 8);
                        machine.load(scratchRegion + a * 0x1000
                                     + k * 8 + 4);
                    }
                    machine.fpOpsCompiled(16);
                    machine.store(mBase + k * 8);
                    machine.store(mBase + k * 8 + 4);
                    machine.intOps(4);
                } else if (k % 2 == 0) {
                    machine.vecLoad(mBase + k * 8);
                    for (unsigned a = 0; a < 2; ++a) {
                        machine.vecLoad(wAddr + a * 0x80000);
                        machine.vecLoad(scratchRegion + a * 0x1000
                                        + k * 8);
                    }
                    machine.vecOps(8, true);
                    machine.vecOps(4);      // re/im shuffles
                    machine.vecStore(mBase + k * 8);
                    machine.intOps(2);
                }
            }

            instrumentedFft(machine, spec, mBase, true, altivec);

            // Write the cancelled block to the output region.
            const Addr outAddr = outRegion
                + (static_cast<Addr>(m) * cfg.subBands + b) * 1024;
            for (unsigned i = 0; i < 128; ++i) {
                out.main[m][b * 128ULL + i] = spec[i];
                if (!altivec) {
                    machine.load(mBase + i * 8);
                    machine.load(mBase + i * 8 + 4);
                    machine.store(outAddr + i * 8);
                    machine.store(outAddr + i * 8 + 4);
                    machine.intOps(2);
                } else if (i % 2 == 0) {
                    machine.vecLoad(mBase + i * 8);
                    machine.vecStore(outAddr + i * 8);
                    machine.intOps(1);
                }
            }
        }
    }
    return machine.cycles();
}

Cycles
beamSteeringPpc(PpcMachine &machine, const kernels::BeamConfig &cfg,
                const kernels::BeamTables &tables,
                std::vector<std::int32_t> &out, bool altivec)
{
    machine.resetTiming();
    out.assign(cfg.outputs(), 0);

    auto coarseAddr = [](unsigned e) {
        return srcRegion + static_cast<Addr>(e) * 4;
    };
    auto fineAddr = [](unsigned e) {
        return srcRegion + 0x10000 + static_cast<Addr>(e) * 4;
    };

    std::size_t idx = 0;
    for (unsigned dw = 0; dw < cfg.dwells; ++dw) {
        trace::TraceScope span("ppc.bs.dwell", "ppc",
                               &machine.statGroup());
        for (unsigned dir = 0; dir < cfg.directions; ++dir) {
            std::int32_t acc = tables.steerBase[dir];
            for (unsigned e = 0; e < cfg.elements; ++e) {
                acc += tables.steerDelta[dir];
                std::int32_t t =
                    tables.calCoarse[e] + tables.calFine[e];
                t += acc;
                t += tables.dwellOffset[dw];
                t += tables.bias;
                out[idx] = t >> cfg.shift;

                if (!altivec) {
                    machine.load(coarseAddr(e));
                    machine.load(fineAddr(e));
                    machine.intOps(6, true);    // 5 adds + shift
                    machine.store(dstRegion + idx * 4);
                    machine.intOps(2);          // loop overhead
                } else if (e % 4 == 0) {
                    machine.vecLoad(coarseAddr(e));
                    machine.vecLoad(fineAddr(e));
                    machine.vecOps(6, true);    // 5 vadd + vsra
                    machine.vecOps(2);          // acc ramp update
                    machine.vecStore(dstRegion + idx * 4);
                    machine.intOps(3);
                }
                ++idx;
            }
        }
    }
    return machine.cycles();
}

} // namespace triarch::ppc
