#include "kernels_imagine.hh"

#include <cstring>
#include <span>

#include "kernels/fft.hh"
#include "sim/bitutil.hh"
#include "sim/logging.hh"

namespace triarch::imagine
{

using kernels::cfloat;

Cycles
cornerTurnImagine(ImagineMachine &machine,
                  const kernels::WordMatrix &src,
                  kernels::WordMatrix &dst)
{
    constexpr unsigned strip = cornerTurnStripRows;
    triarch_assert(src.rows % strip == 0 && src.cols % 8 == 0,
                   "corner turn needs rows % 8 == 0 and cols % 8 == 0");

    const Addr srcBase = machine.allocMem(
        static_cast<std::uint64_t>(src.rows) * src.cols * 4, "ct src");
    const Addr dstBase = machine.allocMem(
        static_cast<std::uint64_t>(src.rows) * src.cols * 4, "ct dst");
    machine.pokeWords(srcBase, src.data);

    machine.resetTiming();

    // The reorder kernel: every iteration each of the 8 clusters
    // assembles one 8-word output record (a column slice of the
    // strip) from the four input streams. SRF traffic is 8 words in
    // + 8 out per cluster; the gather uses the inter-cluster network
    // because consecutive words of one record live in different
    // clusters' stream slices.
    KernelDesc reorder;
    reorder.name = "ct_reorder";
    reorder.iterations = src.cols / 8;
    reorder.adds = 4;       // address bookkeeping
    reorder.comm = 7;       // 7 of 8 record words cross clusters
    reorder.srfWords = 16;
    reorder.pipelineDepth = 8;

    const unsigned rowWords = src.cols;
    for (unsigned s = 0; s < src.rows / strip; ++s) {
        StreamRef in[4];
        for (unsigned i = 0; i < 4; ++i) {
            in[i] = machine.allocStream(2 * rowWords, "ct in");
            machine.loadStream(
                in[i], MemPattern::sequential(
                    srcBase + (static_cast<Addr>(s) * strip + 2 * i)
                    * rowWords * 4,
                    2 * rowWords));
        }
        StreamRef outStream =
            machine.allocStream(strip * rowWords, "ct out");

        machine.runKernel(
            reorder, {&in[0], &in[1], &in[2], &in[3]}, {&outStream},
            [&] {
                auto out = machine.srfData(outStream);
                const std::span<Word> rows[4] = {
                    machine.srfData(in[0]), machine.srfData(in[1]),
                    machine.srfData(in[2]), machine.srfData(in[3])};
                for (unsigned c = 0; c < src.cols; ++c) {
                    for (unsigned r = 0; r < strip; ++r) {
                        out[static_cast<std::size_t>(c) * strip + r] =
                            rows[r / 2][(r % 2) * rowWords + c];
                    }
                }
            });

        // Each 8-word record is one destination-row segment; records
        // stride one destination row (src.rows words) apart.
        MemPattern outPattern;
        outPattern.base = dstBase + static_cast<Addr>(s) * strip * 4;
        outPattern.recordWords = strip;
        outPattern.strideBytes = static_cast<Addr>(src.rows) * 4;
        outPattern.records = src.cols;
        machine.storeStream(outStream, outPattern);

        for (auto &stream : in)
            machine.freeStream(stream);
        machine.freeStream(outStream);
    }

    const Cycles cycles = machine.completionTime();

    dst = kernels::WordMatrix(src.cols, src.rows);
    auto words = machine.peekWords(
        dstBase, static_cast<std::size_t>(src.rows) * src.cols);
    std::copy(words.begin(), words.end(), dst.data.begin());
    return cycles;
}

namespace
{

/** Copy a 128-point complex block out of an SRF stream. */
std::vector<cfloat>
readComplex(const ImagineMachine &machine, const StreamRef &ref)
{
    auto data = machine.srfData(ref);
    std::vector<cfloat> x(data.size() / 2);
    for (std::size_t i = 0; i < x.size(); ++i) {
        x[i] = cfloat(wordToFloat(data[2 * i]),
                      wordToFloat(data[2 * i + 1]));
    }
    return x;
}

/** Write a complex block into an SRF stream (interleaved). */
void
writeComplex(ImagineMachine &machine, const StreamRef &ref,
             const std::vector<cfloat> &x)
{
    auto data = machine.srfData(ref);
    triarch_assert(data.size() == 2 * x.size(), "stream size mismatch");
    for (std::size_t i = 0; i < x.size(); ++i) {
        data[2 * i] = floatToWord(x[i].real());
        data[2 * i + 1] = floatToWord(x[i].imag());
    }
}

/**
 * VLIW schedule model for the parallelized mixed-radix 128-point
 * FFT: 7 butterfly-equivalent stages x 64 butterflies over 8
 * clusters = 56 iterations. Each butterfly is ~6 adds + 4 multiplies
 * and exchanges 4 words with sibling clusters (the paper's
 * inter-cluster communication overhead: II is comm-bound at 4
 * cycles where the arithmetic alone would need 2).
 */
KernelDesc
fft128Desc(const char *name)
{
    KernelDesc desc;
    desc.name = name;
    desc.iterations = 56;
    desc.adds = 6;
    desc.mults = 4;
    desc.comm = 4;
    desc.srfWords = 9;      // 256 in + 256 out words / 56 iterations
    desc.pipelineDepth = 32;    // short stream: prologue hurts
    desc.usefulFlops = kernels::mixed128Ops().flops();
    return desc;
}

} // namespace

Cycles
cslcImagine(ImagineMachine &machine, const kernels::CslcConfig &cfg,
            const kernels::CslcInput &in,
            const kernels::CslcWeights &weights,
            kernels::CslcOutput &out)
{
    triarch_assert(cfg.subBandLen == 128,
                   "Imagine CSLC mapping is built for 128-point bands");

    // DRAM layout: channel time series, weights, output blocks, all
    // interleaved complex.
    auto pokeComplex = [&machine](Addr base,
                                  const std::vector<cfloat> &x) {
        std::vector<Word> words(2 * x.size());
        for (std::size_t i = 0; i < x.size(); ++i) {
            words[2 * i] = floatToWord(x[i].real());
            words[2 * i + 1] = floatToWord(x[i].imag());
        }
        machine.pokeWords(base, words);
    };

    std::vector<Addr> mainBase(cfg.mainChannels), auxBase(cfg.auxChannels);
    for (unsigned m = 0; m < cfg.mainChannels; ++m) {
        mainBase[m] = machine.allocMem(cfg.samples * 8ULL, "cslc main");
        pokeComplex(mainBase[m], in.main[m]);
    }
    for (unsigned a = 0; a < cfg.auxChannels; ++a) {
        auxBase[a] = machine.allocMem(cfg.samples * 8ULL, "cslc aux");
        pokeComplex(auxBase[a], in.aux[a]);
    }

    std::vector<std::vector<Addr>> wBase(cfg.mainChannels,
        std::vector<Addr>(cfg.auxChannels));
    for (unsigned m = 0; m < cfg.mainChannels; ++m) {
        for (unsigned a = 0; a < cfg.auxChannels; ++a) {
            wBase[m][a] = machine.allocMem(
                static_cast<std::uint64_t>(cfg.subBands) * 128 * 8,
                "cslc weights");
            pokeComplex(wBase[m][a], weights.w[m][a]);
        }
    }

    std::vector<Addr> outBase(cfg.mainChannels);
    for (unsigned m = 0; m < cfg.mainChannels; ++m) {
        outBase[m] = machine.allocMem(
            static_cast<std::uint64_t>(cfg.subBands) * 128 * 8,
            "cslc out");
    }

    machine.resetTiming();

    // Weight application: per iteration each cluster handles one
    // bin: two complex multiplies (8 mults + 4 adds) plus two
    // complex subtracts (4 adds); 12 SRF words in, 2 out.
    KernelDesc weightDesc;
    weightDesc.name = "cslc_weights";
    weightDesc.iterations = 16;
    weightDesc.adds = 8;
    weightDesc.mults = 8;
    weightDesc.srfWords = 14;
    weightDesc.pipelineDepth = 16;
    weightDesc.usefulFlops = 128 * 16;

    const unsigned blockWords = 256;
    for (unsigned b = 0; b < cfg.subBands; ++b) {
        const Addr off = static_cast<Addr>(b) * cfg.subBandStride * 8;

        // Load and transform the aux channels.
        StreamRef auxTime[2], auxSpec[2];
        for (unsigned a = 0; a < cfg.auxChannels; ++a) {
            auxTime[a] = machine.allocStream(blockWords, "aux time");
            auxSpec[a] = machine.allocStream(blockWords, "aux spec");
            machine.loadStream(
                auxTime[a],
                MemPattern::sequential(auxBase[a] + off, blockWords));
            machine.runKernel(
                fft128Desc("cslc_fft_aux"), {&auxTime[a]}, {&auxSpec[a]},
                [&] {
                    auto x = readComplex(machine, auxTime[a]);
                    kernels::fftMixed128(x);
                    writeComplex(machine, auxSpec[a], x);
                });
        }

        for (unsigned m = 0; m < cfg.mainChannels; ++m) {
            StreamRef mainTime =
                machine.allocStream(blockWords, "main time");
            StreamRef mainSpec =
                machine.allocStream(blockWords, "main spec");
            machine.loadStream(
                mainTime,
                MemPattern::sequential(mainBase[m] + off, blockWords));
            machine.runKernel(
                fft128Desc("cslc_fft_main"), {&mainTime}, {&mainSpec},
                [&] {
                    auto x = readComplex(machine, mainTime);
                    kernels::fftMixed128(x);
                    writeComplex(machine, mainSpec, x);
                });

            // Load this sub-band's weights for both aux channels.
            StreamRef w[2];
            for (unsigned a = 0; a < cfg.auxChannels; ++a) {
                w[a] = machine.allocStream(blockWords, "weights");
                machine.loadStream(
                    w[a], MemPattern::sequential(
                        wBase[m][a] + static_cast<Addr>(b) * 128 * 8,
                        blockWords));
            }

            StreamRef cancelled =
                machine.allocStream(blockWords, "cancelled");
            machine.runKernel(
                weightDesc,
                {&mainSpec, &auxSpec[0], &auxSpec[1], &w[0], &w[1]},
                {&cancelled},
                [&] {
                    auto ms = readComplex(machine, mainSpec);
                    auto a0 = readComplex(machine, auxSpec[0]);
                    auto a1 = readComplex(machine, auxSpec[1]);
                    auto w0 = readComplex(machine, w[0]);
                    auto w1 = readComplex(machine, w[1]);
                    // Subtract the aux products one at a time, in
                    // the reference's operation order: summing them
                    // first rounds differently, which shows up when
                    // a degenerate config (e.g. 2 sub-bands) lets
                    // the canceller null the output entirely and
                    // only rounding noise remains.
                    for (unsigned k = 0; k < 128; ++k) {
                        ms[k] -= w0[k] * a0[k];
                        ms[k] -= w1[k] * a1[k];
                    }
                    writeComplex(machine, cancelled, ms);
                });

            StreamRef outTime =
                machine.allocStream(blockWords, "out time");
            machine.runKernel(
                fft128Desc("cslc_ifft"), {&cancelled}, {&outTime},
                [&] {
                    auto x = readComplex(machine, cancelled);
                    kernels::ifftMixed128(x);
                    writeComplex(machine, outTime, x);
                });

            machine.storeStream(
                outTime, MemPattern::sequential(
                    outBase[m] + static_cast<Addr>(b) * 128 * 8,
                    blockWords));

            machine.freeStream(mainTime);
            machine.freeStream(mainSpec);
            machine.freeStream(w[0]);
            machine.freeStream(w[1]);
            machine.freeStream(cancelled);
            machine.freeStream(outTime);
        }

        for (unsigned a = 0; a < cfg.auxChannels; ++a) {
            machine.freeStream(auxTime[a]);
            machine.freeStream(auxSpec[a]);
        }
    }

    const Cycles cycles = machine.completionTime();

    out.main.assign(cfg.mainChannels,
        std::vector<cfloat>(static_cast<std::size_t>(cfg.subBands)
                            * 128));
    for (unsigned m = 0; m < cfg.mainChannels; ++m) {
        auto words = machine.peekWords(
            outBase[m], static_cast<std::size_t>(cfg.subBands) * 256);
        for (std::size_t i = 0; i < out.main[m].size(); ++i) {
            out.main[m][i] = cfloat(wordToFloat(words[2 * i]),
                                    wordToFloat(words[2 * i + 1]));
        }
    }
    return cycles;
}

Cycles
cslcImagineIndependent(ImagineMachine &machine,
                       const kernels::CslcConfig &cfg,
                       const kernels::CslcInput &in,
                       const kernels::CslcWeights &weights,
                       kernels::CslcOutput &out)
{
    triarch_assert(cfg.subBandLen == 128,
                   "Imagine CSLC mapping is built for 128-point bands");

    auto pokeComplex = [&machine](Addr base,
                                  const std::vector<cfloat> &x) {
        std::vector<Word> words(2 * x.size());
        for (std::size_t i = 0; i < x.size(); ++i) {
            words[2 * i] = floatToWord(x[i].real());
            words[2 * i + 1] = floatToWord(x[i].imag());
        }
        machine.pokeWords(base, words);
    };

    std::vector<Addr> chBase(4);
    for (unsigned a = 0; a < cfg.auxChannels; ++a) {
        chBase[a] = machine.allocMem(cfg.samples * 8ULL, "cslc aux");
        pokeComplex(chBase[a], in.aux[a]);
    }
    for (unsigned m = 0; m < cfg.mainChannels; ++m) {
        chBase[2 + m] =
            machine.allocMem(cfg.samples * 8ULL, "cslc main");
        pokeComplex(chBase[2 + m], in.main[m]);
    }

    std::vector<std::vector<Addr>> wBase(2, std::vector<Addr>(2));
    for (unsigned m = 0; m < 2; ++m) {
        for (unsigned a = 0; a < 2; ++a) {
            wBase[m][a] = machine.allocMem(
                static_cast<std::uint64_t>(cfg.subBands) * 128 * 8,
                "cslc weights");
            pokeComplex(wBase[m][a], weights.w[m][a]);
        }
    }
    std::vector<Addr> outBase(2);
    for (unsigned m = 0; m < 2; ++m) {
        outBase[m] = machine.allocMem(
            static_cast<std::uint64_t>(cfg.subBands) * 128 * 8,
            "cslc out");
    }

    machine.resetTiming();

    // Each cluster transforms a whole 128-point block of its own:
    // no comm; per iteration every cluster executes one butterfly
    // (6 adds + 4 multiplies) of its private transform.
    KernelDesc fftBatch;
    fftBatch.name = "cslc_fft_independent";
    fftBatch.iterations = static_cast<unsigned>(
        ceilDiv(kernels::mixed128Ops().flops(), 10));
    fftBatch.adds = 6;
    fftBatch.mults = 4;
    fftBatch.comm = 0;
    fftBatch.srfWords = 2;
    fftBatch.pipelineDepth = 32;

    KernelDesc weightDesc;
    weightDesc.name = "cslc_weights";
    weightDesc.iterations = 16;
    weightDesc.adds = 8;
    weightDesc.mults = 8;
    weightDesc.srfWords = 14;
    weightDesc.pipelineDepth = 16;
    weightDesc.usefulFlops = 128 * 16;

    const unsigned blockWords = 256;
    // Process sub-bands in pairs: 2 bands x 4 channels = 8
    // independent forward transforms, one per cluster; then the
    // pair's 4 IFFTs run as a half-occupied batch.
    for (unsigned b0 = 0; b0 < cfg.subBands; b0 += 2) {
        const unsigned bands = std::min(2u, cfg.subBands - b0);
        const unsigned fwd = bands * 4;

        StreamRef time[8], spec[8];
        for (unsigned i = 0; i < fwd; ++i) {
            const unsigned b = b0 + i / 4;
            const unsigned ch = i % 4;
            time[i] = machine.allocStream(blockWords, "time");
            spec[i] = machine.allocStream(blockWords, "spec");
            machine.loadStream(
                time[i],
                MemPattern::sequential(
                    chBase[ch]
                        + static_cast<Addr>(b) * cfg.subBandStride * 8,
                    blockWords));
        }

        KernelDesc fwdDesc = fftBatch;
        fwdDesc.usefulFlops = static_cast<std::uint64_t>(fwd)
                              * kernels::mixed128Ops().flops();
        // Invalid (default) StreamRefs in the gating lists are
        // ignored by the ready tracking, so passing all eight slots
        // is safe when the tail pair has only one band.
        machine.runKernel(
            fwdDesc,
            {&time[0], &time[1], &time[2], &time[3], &time[4],
             &time[5], &time[6], &time[7]},
            {&spec[0], &spec[1], &spec[2], &spec[3], &spec[4],
             &spec[5], &spec[6], &spec[7]},
            [&] {
                for (unsigned i = 0; i < fwd; ++i) {
                    auto x = readComplex(machine, time[i]);
                    kernels::fftMixed128(x);
                    writeComplex(machine, spec[i], x);
                }
            });

        // Weight application for every (band, main) of the pair,
        // collecting the cancelled spectra...
        StreamRef cancelled[4], w[4][2];
        const unsigned nout = bands * 2;
        for (unsigned i = 0; i < bands; ++i) {
            const unsigned b = b0 + i;
            for (unsigned m = 0; m < 2; ++m) {
                const unsigned o = i * 2 + m;
                for (unsigned a = 0; a < 2; ++a) {
                    w[o][a] = machine.allocStream(blockWords,
                                                  "weights");
                    machine.loadStream(
                        w[o][a],
                        MemPattern::sequential(
                            wBase[m][a] + static_cast<Addr>(b) * 1024,
                            blockWords));
                }
                cancelled[o] =
                    machine.allocStream(blockWords, "cancelled");
                const StreamRef &mainSpec = spec[i * 4 + 2 + m];
                const StreamRef &a0 = spec[i * 4 + 0];
                const StreamRef &a1 = spec[i * 4 + 1];
                machine.runKernel(
                    weightDesc,
                    {&mainSpec, &a0, &a1, &w[o][0], &w[o][1]},
                    {&cancelled[o]},
                    [&, o] {
                        auto ms = readComplex(machine, mainSpec);
                        auto s0 = readComplex(machine, a0);
                        auto s1 = readComplex(machine, a1);
                        auto w0 = readComplex(machine, w[o][0]);
                        auto w1 = readComplex(machine, w[o][1]);
                        // Same operation order as the reference
                        // (see cslcImagine above): subtract each
                        // aux product separately.
                        for (unsigned k = 0; k < 128; ++k) {
                            ms[k] -= w0[k] * s0[k];
                            ms[k] -= w1[k] * s1[k];
                        }
                        writeComplex(machine, cancelled[o], ms);
                    });
            }
        }

        // ...then inverse-transform them as one independent batch
        // (2-4 clusters busy; the rest idle, as the real mapping
        // would leave them).
        StreamRef outTime[4];
        for (unsigned o = 0; o < nout; ++o)
            outTime[o] = machine.allocStream(blockWords, "out time");
        KernelDesc invDesc = fftBatch;
        invDesc.name = "cslc_ifft_independent";
        invDesc.usefulFlops = static_cast<std::uint64_t>(nout)
                              * kernels::mixed128Ops().flops();
        machine.runKernel(
            invDesc,
            {&cancelled[0], &cancelled[1], &cancelled[2],
             &cancelled[3]},
            {&outTime[0], &outTime[1], &outTime[2], &outTime[3]},
            [&] {
                for (unsigned o = 0; o < nout; ++o) {
                    auto x = readComplex(machine, cancelled[o]);
                    kernels::ifftMixed128(x);
                    writeComplex(machine, outTime[o], x);
                }
            });

        for (unsigned i = 0; i < bands; ++i) {
            const unsigned b = b0 + i;
            for (unsigned m = 0; m < 2; ++m) {
                const unsigned o = i * 2 + m;
                machine.storeStream(
                    outTime[o],
                    MemPattern::sequential(
                        outBase[m] + static_cast<Addr>(b) * 1024,
                        blockWords));
            }
        }
        for (unsigned o = 0; o < nout; ++o) {
            machine.freeStream(w[o][0]);
            machine.freeStream(w[o][1]);
            machine.freeStream(cancelled[o]);
            machine.freeStream(outTime[o]);
        }

        for (unsigned i = 0; i < fwd; ++i) {
            machine.freeStream(time[i]);
            machine.freeStream(spec[i]);
        }
    }

    const Cycles cycles = machine.completionTime();

    out.main.assign(cfg.mainChannels,
        std::vector<cfloat>(static_cast<std::size_t>(cfg.subBands)
                            * 128));
    for (unsigned m = 0; m < cfg.mainChannels; ++m) {
        auto words = machine.peekWords(
            outBase[m], static_cast<std::size_t>(cfg.subBands) * 256);
        for (std::size_t i = 0; i < out.main[m].size(); ++i) {
            out.main[m][i] = cfloat(wordToFloat(words[2 * i]),
                                    wordToFloat(words[2 * i + 1]));
        }
    }
    return cycles;
}

Cycles
beamSteeringImagine(ImagineMachine &machine,
                    const kernels::BeamConfig &cfg,
                    const kernels::BeamTables &tables,
                    std::vector<std::int32_t> &out, bool tablesResident)
{
    const Addr coarseBase =
        machine.allocMem(cfg.elements * 4ULL, "bs coarse");
    const Addr fineBase =
        machine.allocMem(cfg.elements * 4ULL, "bs fine");
    const Addr outBase =
        machine.allocMem(cfg.outputs() * 4ULL, "bs out");

    auto pokeI32 = [&machine](Addr base,
                              const std::vector<std::int32_t> &v) {
        std::vector<Word> w(v.size());
        for (std::size_t i = 0; i < v.size(); ++i)
            w[i] = static_cast<Word>(v[i]);
        machine.pokeWords(base, w);
    };
    pokeI32(coarseBase, tables.calCoarse);
    pokeI32(fineBase, tables.calFine);

    machine.resetTiming();

    // Per iteration each cluster computes one output: five adds and
    // one shift on the adder class; 2 SRF words in, 1 out.
    KernelDesc steer;
    steer.name = "beam_steer";
    steer.iterations = static_cast<unsigned>(
        ceilDiv(cfg.elements, machine.config().clusters));
    steer.adds = 6;
    steer.srfWords = 3;
    steer.pipelineDepth = 16;
    steer.usefulFlops = 0;  // integer kernel

    StreamRef coarse, fine;
    const auto loadTables = [&] {
        coarse = machine.allocStream(cfg.elements, "coarse");
        fine = machine.allocStream(cfg.elements, "fine");
        machine.loadStream(
            coarse, MemPattern::sequential(coarseBase, cfg.elements));
        machine.loadStream(
            fine, MemPattern::sequential(fineBase, cfg.elements));
    };
    if (tablesResident)
        loadTables();

    for (unsigned dw = 0; dw < cfg.dwells; ++dw) {
        for (unsigned dir = 0; dir < cfg.directions; ++dir) {
            if (!tablesResident)
                loadTables();

            StreamRef result =
                machine.allocStream(cfg.elements, "result");
            machine.runKernel(
                steer, {&coarse, &fine}, {&result},
                [&] {
                    auto c = machine.srfData(coarse);
                    auto f = machine.srfData(fine);
                    auto r = machine.srfData(result);
                    std::int32_t acc = tables.steerBase[dir];
                    for (unsigned e = 0; e < cfg.elements; ++e) {
                        acc += tables.steerDelta[dir];
                        std::int32_t t =
                            static_cast<std::int32_t>(c[e])
                            + static_cast<std::int32_t>(f[e]);
                        t += acc;
                        t += tables.dwellOffset[dw];
                        t += tables.bias;
                        r[e] = static_cast<Word>(t >> cfg.shift);
                    }
                });

            machine.storeStream(
                result, MemPattern::sequential(
                    outBase + (static_cast<Addr>(dw) * cfg.directions
                               + dir) * cfg.elements * 4,
                    cfg.elements));

            if (!tablesResident) {
                machine.freeStream(coarse);
                machine.freeStream(fine);
            }
            machine.freeStream(result);
        }
    }

    const Cycles cycles = machine.completionTime();

    auto words = machine.peekWords(outBase, cfg.outputs());
    out.resize(words.size());
    for (std::size_t i = 0; i < words.size(); ++i)
        out[i] = static_cast<std::int32_t>(words[i]);
    return cycles;
}

} // namespace triarch::imagine
