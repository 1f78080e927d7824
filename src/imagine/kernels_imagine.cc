#include "kernels_imagine.hh"

#include <array>
#include <span>

#include "kernels/fft.hh"
#include "kernels/word_codec.hh"
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

/** The functional half of a 128-point transform kernel. */
void
fftStream(ImagineMachine &machine, const StreamRef &from,
          const StreamRef &to, bool inverse)
{
    auto x = kernels::decodeComplex(machine.srfData(from));
    if (inverse)
        kernels::ifftMixed128(x);
    else
        kernels::fftMixed128(x);
    kernels::encodeComplex(x, machine.srfData(to));
}

constexpr unsigned blockWords = 256;    // one 128-point complex block

/**
 * DRAM image of one CSLC interval, interleaved complex throughout:
 * channel time series (aux0, aux1, main0, main1), weights [main][aux]
 * and one output block per main channel.
 */
struct CslcImage
{
    std::array<Addr, 4> ch;
    std::array<std::array<Addr, 2>, 2> w;
    std::array<Addr, 2> out;
};

/**
 * Place one interval's inputs, weights and outputs in DRAM, then
 * reset the timing. The Table-3 mapping places the main channels
 * first and the independent one the aux channels: the DRAM model is
 * address-sensitive, so each keeps its own order.
 */
CslcImage
placeCslc(ImagineMachine &machine, const kernels::CslcConfig &cfg,
          const kernels::CslcInput &in,
          const kernels::CslcWeights &weights, bool auxFirst)
{
    triarch_assert(cfg.subBandLen == 128,
                   "Imagine CSLC mapping is built for 128-point bands");
    triarch_assert(cfg.mainChannels == 2 && cfg.auxChannels == 2,
                   "Imagine CSLC mapping assumes 2 main + 2 aux "
                   "channels");
    CslcImage img;
    const auto poke = [&machine](Addr &at, std::uint64_t bytes,
                                 const char *what,
                                 const std::vector<cfloat> &x) {
        at = machine.allocMem(bytes, what);
        machine.pokeWords(at, kernels::encodeComplex(x));
    };
    for (unsigned i = 0; i < 4; ++i) {
        const unsigned c = auxFirst ? i : (i + 2) % 4;
        poke(img.ch[c], cfg.samples * 8ULL,
             c < 2 ? "cslc aux" : "cslc main",
             c < 2 ? in.aux[c] : in.main[c - 2]);
    }
    const std::uint64_t bandBytes =
        static_cast<std::uint64_t>(cfg.subBands) * 128 * 8;
    for (unsigned m = 0; m < 2; ++m) {
        for (unsigned a = 0; a < 2; ++a)
            poke(img.w[m][a], bandBytes, "cslc weights", weights.w[m][a]);
    }
    for (Addr &o : img.out)
        o = machine.allocMem(bandBytes, "cslc out");
    machine.resetTiming();
    return img;
}

/** The weight streams and the result of one weight application. */
struct Cancelled
{
    StreamRef w[2];
    StreamRef out;
};

/**
 * Load sub-band @p b's weights for main channel @p m and run the
 * weight-application kernel on the spectra: per iteration each
 * cluster handles one bin, two complex multiplies (8 mults + 4 adds)
 * plus two complex subtracts (4 adds); 12 SRF words in, 2 out. The
 * caller frees the returned streams.
 */
Cancelled
cancelBand(ImagineMachine &machine, const CslcImage &img, unsigned m,
           unsigned b, const StreamRef &mainSpec, const StreamRef &aux0,
           const StreamRef &aux1)
{
    KernelDesc desc;
    desc.name = "cslc_weights";
    desc.iterations = 16;
    desc.adds = 8;
    desc.mults = 8;
    desc.srfWords = 14;
    desc.pipelineDepth = 16;
    desc.usefulFlops = 128 * 16;

    Cancelled c;
    for (unsigned a = 0; a < 2; ++a) {
        c.w[a] = machine.allocStream(blockWords, "weights");
        machine.loadStream(
            c.w[a], MemPattern::sequential(
                img.w[m][a] + static_cast<Addr>(b) * 128 * 8,
                blockWords));
    }
    c.out = machine.allocStream(blockWords, "cancelled");
    machine.runKernel(
        desc, {&mainSpec, &aux0, &aux1, &c.w[0], &c.w[1]}, {&c.out},
        [&] {
            auto ms = kernels::decodeComplex(machine.srfData(mainSpec));
            const auto a0 = kernels::decodeComplex(machine.srfData(aux0));
            const auto a1 = kernels::decodeComplex(machine.srfData(aux1));
            const auto w0 = kernels::decodeComplex(machine.srfData(c.w[0]));
            const auto w1 = kernels::decodeComplex(machine.srfData(c.w[1]));
            // Subtract the aux products one at a time, in the
            // reference's operation order: summing them first rounds
            // differently, which shows up when a degenerate config
            // (e.g. 2 sub-bands) lets the canceller null the output
            // entirely and only rounding noise remains.
            for (unsigned k = 0; k < 128; ++k) {
                ms[k] -= w0[k] * a0[k];
                ms[k] -= w1[k] * a1[k];
            }
            kernels::encodeComplex(ms, machine.srfData(c.out));
        });
    return c;
}

/** The run's cycles, with the cancelled mains read back into @p out. */
Cycles
finishCslc(ImagineMachine &machine, const kernels::CslcConfig &cfg,
           const CslcImage &img, kernels::CslcOutput &out)
{
    const Cycles cycles = machine.completionTime();
    out.main.clear();
    for (const Addr o : img.out) {
        out.main.push_back(kernels::decodeComplex(machine.peekWords(
            o, static_cast<std::size_t>(cfg.subBands) * 2 * 128)));
    }
    return cycles;
}

} // namespace

Cycles
cslcImagine(ImagineMachine &machine, const kernels::CslcConfig &cfg,
            const kernels::CslcInput &in,
            const kernels::CslcWeights &weights,
            kernels::CslcOutput &out)
{
    const CslcImage img = placeCslc(machine, cfg, in, weights, false);

    for (unsigned b = 0; b < cfg.subBands; ++b) {
        const Addr off = static_cast<Addr>(b) * cfg.subBandStride * 8;

        // Load and transform the aux channels.
        StreamRef auxTime[2], auxSpec[2];
        for (unsigned a = 0; a < 2; ++a) {
            auxTime[a] = machine.allocStream(blockWords, "aux time");
            auxSpec[a] = machine.allocStream(blockWords, "aux spec");
            machine.loadStream(
                auxTime[a],
                MemPattern::sequential(img.ch[a] + off, blockWords));
            machine.runKernel(
                fft128Desc("cslc_fft_aux"), {&auxTime[a]}, {&auxSpec[a]},
                [&] { fftStream(machine, auxTime[a], auxSpec[a], false); });
        }

        for (unsigned m = 0; m < 2; ++m) {
            StreamRef mainTime =
                machine.allocStream(blockWords, "main time");
            StreamRef mainSpec =
                machine.allocStream(blockWords, "main spec");
            machine.loadStream(
                mainTime,
                MemPattern::sequential(img.ch[2 + m] + off, blockWords));
            machine.runKernel(
                fft128Desc("cslc_fft_main"), {&mainTime}, {&mainSpec},
                [&] { fftStream(machine, mainTime, mainSpec, false); });

            const Cancelled c = cancelBand(machine, img, m, b, mainSpec,
                                           auxSpec[0], auxSpec[1]);

            StreamRef outTime =
                machine.allocStream(blockWords, "out time");
            machine.runKernel(
                fft128Desc("cslc_ifft"), {&c.out}, {&outTime},
                [&] { fftStream(machine, c.out, outTime, true); });

            machine.storeStream(
                outTime, MemPattern::sequential(
                    img.out[m] + static_cast<Addr>(b) * 128 * 8,
                    blockWords));

            machine.freeStream(mainTime);
            machine.freeStream(mainSpec);
            machine.freeStream(c.w[0]);
            machine.freeStream(c.w[1]);
            machine.freeStream(c.out);
            machine.freeStream(outTime);
        }

        for (unsigned a = 0; a < 2; ++a) {
            machine.freeStream(auxTime[a]);
            machine.freeStream(auxSpec[a]);
        }
    }
    return finishCslc(machine, cfg, img, out);
}

Cycles
cslcImagineIndependent(ImagineMachine &machine,
                       const kernels::CslcConfig &cfg,
                       const kernels::CslcInput &in,
                       const kernels::CslcWeights &weights,
                       kernels::CslcOutput &out)
{
    const CslcImage img = placeCslc(machine, cfg, in, weights, true);

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

    // Process sub-bands in pairs: 2 bands x 4 channels = 8
    // independent forward transforms, one per cluster; then the
    // pair's 4 IFFTs run as a half-occupied batch.
    for (unsigned b0 = 0; b0 < cfg.subBands; b0 += 2) {
        const unsigned bands = std::min(2u, cfg.subBands - b0);
        const unsigned fwd = bands * 4;

        StreamRef time[8], spec[8];
        for (unsigned i = 0; i < fwd; ++i) {
            const unsigned b = b0 + i / 4;
            time[i] = machine.allocStream(blockWords, "time");
            spec[i] = machine.allocStream(blockWords, "spec");
            machine.loadStream(
                time[i],
                MemPattern::sequential(
                    img.ch[i % 4]
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
                for (unsigned i = 0; i < fwd; ++i)
                    fftStream(machine, time[i], spec[i], false);
            });

        // Weight application for every (band, main) of the pair,
        // collecting the cancelled spectra...
        Cancelled c[4];
        const unsigned nout = bands * 2;
        for (unsigned o = 0; o < nout; ++o) {
            const unsigned i = o / 2;
            c[o] = cancelBand(machine, img, o % 2, b0 + i,
                              spec[i * 4 + 2 + o % 2], spec[i * 4],
                              spec[i * 4 + 1]);
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
            {&c[0].out, &c[1].out, &c[2].out, &c[3].out},
            {&outTime[0], &outTime[1], &outTime[2], &outTime[3]},
            [&] {
                for (unsigned o = 0; o < nout; ++o)
                    fftStream(machine, c[o].out, outTime[o], true);
            });

        for (unsigned o = 0; o < nout; ++o) {
            machine.storeStream(
                outTime[o],
                MemPattern::sequential(
                    img.out[o % 2] + static_cast<Addr>(b0 + o / 2) * 1024,
                    blockWords));
        }
        for (unsigned o = 0; o < nout; ++o) {
            machine.freeStream(c[o].w[0]);
            machine.freeStream(c[o].w[1]);
            machine.freeStream(c[o].out);
            machine.freeStream(outTime[o]);
        }

        for (unsigned i = 0; i < fwd; ++i) {
            machine.freeStream(time[i]);
            machine.freeStream(spec[i]);
        }
    }
    return finishCslc(machine, cfg, img, out);
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

    machine.pokeWords(coarseBase, kernels::encodeI32(tables.calCoarse));
    machine.pokeWords(fineBase, kernels::encodeI32(tables.calFine));

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

    out = kernels::decodeI32(machine.peekWords(outBase, cfg.outputs()));
    return cycles;
}

} // namespace triarch::imagine
