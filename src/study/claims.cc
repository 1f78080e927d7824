#include "claims.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <string_view>

#include "imagine/kernels_imagine.hh"
#include "kernels/fft.hh"
#include "ppc/kernels_ppc.hh"
#include "raw/kernels_raw.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "sim/table.hh"
#include "viram/kernels_viram.hh"

namespace triarch::study
{

bool
Band::contains(double v) const
{
    return open ? lo < v && v < hi : lo <= v && v <= hi;
}

std::optional<Band>
bandFromWording(const std::string &wording)
{
    std::string_view s = wording;
    const bool below = s.starts_with("<");
    if (below || s.starts_with("~"))
        s.remove_prefix(1);
    else if (s.starts_with("about "))
        s.remove_prefix(6);
    const std::string text(s);
    char *end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    if (end == text.c_str())
        return std::nullopt;
    if (below)
        return Band{0.0, v, true};
    for (const std::string_view dash : {"-", "–"}) {
        if (std::string_view(end).starts_with(dash))
            return Band{v, std::strtod(end + dash.size(), nullptr)};
    }
    return Band{0.75 * v, 1.25 * v};
}

namespace
{

using kernels::CslcOutput;
using kernels::WordMatrix;

constexpr MachineId PPC = MachineId::PpcScalar;
constexpr MachineId ALTIVEC = MachineId::PpcAltivec;
constexpr MachineId VIRAM = MachineId::Viram;
constexpr MachineId IMAGINE = MachineId::Imagine;
constexpr MachineId RAW = MachineId::Raw;
constexpr KernelId CT = KernelId::CornerTurn;
constexpr KernelId CSLC = KernelId::Cslc;
constexpr KernelId BS = KernelId::BeamSteering;

/** The row measureClaim() is running, named by fatal errors. */
thread_local const Claim *measuring = nullptr;

void
requireValid(bool ok, const std::string &run)
{
    if (!ok)
        triarch_fatal("claim ", measuring ? measuring->id : "(none)",
                      ": ", run, " produced a wrong output");
}

/** A Table-3 cell: cached by the runner, validated by the registry. */
RunResult
cell(ClaimRun &r, MachineId machine, KernelId kernel)
{
    RunResult result = r.runner.run(machine, kernel);
    requireValid(result.validated, "its Table-3 cell");
    return result;
}

Cycles
cycles(ClaimRun &r, MachineId machine, KernelId kernel)
{
    return cell(r, machine, kernel).cycles;
}

/** A Table-3 cell's note, in percent. */
double
notePct(ClaimRun &r, MachineId machine, KernelId kernel,
        std::string_view name)
{
    for (const auto &[key, value] : cell(r, machine, kernel).notes) {
        if (key == name)
            return 100.0 * value;
    }
    triarch_fatal("Table-3 cell has no note ", name);
}

/** Percent of @p base cycles that @p variant saves. */
double
saved(Cycles base, Cycles variant)
{
    return 100.0 * (static_cast<double>(base) - variant) / base;
}

/** Fatal unless @p dst is the transpose of @p src; passes @p c on. */
Cycles
transposed(Cycles c, const WordMatrix &src, const WordMatrix &dst)
{
    requireValid(kernels::isTransposeOf(src, dst), "a corner turn");
    return c;
}

Cycles
viramCt(const WordMatrix &src, const viram::ViramConfig &cfg,
        unsigned rowBlock = 64)
{
    viram::ViramMachine m(cfg);
    WordMatrix dst;
    return transposed(viram::cornerTurnViram(m, src, dst, rowBlock), src,
                      dst);
}

/** Cycles per word of an n x n corner turn with 128 MiB of DRAM
 *  (VIRAM's off-chip DMA path past its 13 MB on chip; Raw's DRAM is
 *  off chip at every size). */
double
capacityCt(ClaimRun &r, MachineId machine, unsigned n)
{
    const std::string key = "capacity." + machineToken(machine) + "."
                            + std::to_string(n);
    return r.once(key, [&] {
        WordMatrix src(n, n), dst;
        kernels::fillMatrix(src, r.config().seed);
        Cycles c = 0;
        if (machine == VIRAM) {
            viram::ViramConfig cfg;
            cfg.offchipBytes = 128ULL << 20;
            c = viramCt(src, cfg);
        } else {
            raw::RawConfig cfg;
            cfg.globalBytes = 128ULL << 20;
            raw::RawMachine m(cfg);
            c = transposed(raw::cornerTurnRaw(m, src, dst), src, dst);
        }
        return static_cast<double>(c) / n / n;
    });
}

struct ImagineRun
{
    Cycles cycles;
    double aluPct;     //!< ALU utilization
    double memoryPct;  //!< memory-engine busy fraction
};

/** Imagine CSLC with an ideal inter-cluster network, or with the
 *  independent per-cluster FFTs the paper did not complete. */
const ImagineRun &
imagineCslc(ClaimRun &r, bool independent)
{
    const std::string key = independent ? "imagine.independent"
                                        : "imagine.ideal";
    return r.once(key, [&] {
        const Workloads &work = *r.workloads();
        imagine::ImagineConfig cfg;
        if (!independent)
            cfg.commPerCluster = 8;     // comm never sets the II
        imagine::ImagineMachine m(cfg);
        CslcOutput out;
        const Cycles c =
            (independent ? imagine::cslcImagineIndependent
                         : imagine::cslcImagine)(
                m, r.config().cslc, work.cslcIn, work.weights, out);
        requireValid(cslcOutputValid(r.config(), work, out,
                                     kernels::FftAlgo::Mixed128),
                     "the Imagine CSLC");
        return ImagineRun{c, 100.0 * m.aluUtilization(),
                          100.0 * m.memoryFraction()};
    });
}

struct RawRun
{
    raw::RawCslcResult result;
    Cycles cacheStallCycles;
};

/** Raw CSLC on @p sets sub-band sets over @p intervals consecutive
 *  intervals (sets dealt round-robin), cached or in stream mode. */
const RawRun &
rawCslc(ClaimRun &r, unsigned sets, unsigned intervals,
        bool streamed = false)
{
    const std::string key = "raw." + std::to_string(sets) + "x"
                            + std::to_string(intervals)
                            + (streamed ? "s" : "");
    return r.once(key, [&] {
        StudyConfig cfg = r.config();
        cfg.cslc.subBands = sets;
        cfg.cslc.samples =
            (sets - 1) * cfg.cslc.subBandStride + cfg.cslc.subBandLen;
        const auto work =
            cfg == r.config() ? r.workloads() : buildWorkloads(cfg);
        raw::RawMachine m;
        CslcOutput out;
        const auto result =
            streamed ? raw::cslcRawStreamed(m, cfg.cslc, work->cslcIn,
                                            work->weights, out)
                     : raw::cslcRaw(m, cfg.cslc, work->cslcIn,
                                    work->weights, out, intervals);
        requireValid(cslcOutputValid(cfg, *work, out,
                                     kernels::FftAlgo::Radix2),
                     "the Raw CSLC");
        return RawRun{result, Cycles{m.cacheStallCycles()}};
    });
}

/**
 * A 64x64 float matrix multiply as assembled tile programs: tile t
 * computes row stripes t, t+T, ... of C from cached global memory
 * (load, fmul, fadd, pointer bumps, like the CSLC code). The product
 * lands in @p c; its diagonal is checked against the host's.
 */
Cycles
rawMatmul(raw::RawMachine &machine, std::vector<Word> &c)
{
    constexpr unsigned n = 64;
    const Addr aBase = machine.allocGlobal(n * n * 4, "A");
    const Addr bBase = machine.allocGlobal(n * n * 4, "B");
    const Addr cBase = machine.allocGlobal(n * n * 4, "C");
    Rng rng(5);
    std::vector<float> a(n * n), b(n * n);
    for (auto [m, base] : {std::pair{&a, aBase}, std::pair{&b, bBase}}) {
        std::vector<Word> words;
        for (float &v : *m)
            words.push_back(floatToWord(v = rng.nextSignedFloat()));
        machine.pokeGlobal(base, words);
    }

    const unsigned tiles = machine.config().tiles();
    for (unsigned t = 0; t < tiles; ++t) {
        raw::Assembler as;
        for (unsigned i = t; i < n; i += tiles) {
            as.li(1, static_cast<std::int32_t>(aBase + i * n * 4));
            as.li(4, static_cast<std::int32_t>(cBase + i * n * 4));
            as.li(5, n);                                // j counter
            as.li(2, static_cast<std::int32_t>(bBase)); // B column
            raw::Label jloop = as.label();
            as.bind(jloop);
            as.li(10, 0);       // acc
            as.move(6, 1);      // A row pointer
            as.move(7, 2);      // B column pointer (stride n*4)
            as.li(8, n);
            raw::Label kloop = as.label();
            as.bind(kloop);
            as.lw(11, 6, 0);
            as.lw(12, 7, 0);
            as.fmul(13, 11, 12);
            as.fadd(10, 10, 13);
            as.addi(6, 6, 4);
            as.addi(7, 7, n * 4);
            as.addi(8, 8, -1);
            as.bne(8, 0, kloop);
            as.sw(10, 4, 0);
            as.addi(4, 4, 4);
            as.addi(2, 2, 4);
            as.addi(5, 5, -1);
            as.bne(5, 0, jloop);
        }
        as.halt();
        machine.setProgram(t, as.finish());
    }

    const Cycles total = machine.run();
    c = machine.peekGlobal(cBase, n * n);
    for (unsigned p : {0u, n / 2, n - 1}) {
        float expect = 0.0f;
        for (unsigned k = 0; k < n; ++k)
            expect += a[p * n + k] * b[k * n + p];
        requireValid(std::abs(wordToFloat(c[p * n + p]) - expect) < 1e-3f,
                     "the Raw matrix multiply");
    }
    return total;
}

/**
 * Imagine ALU utilization (percent) over ten SRF-resident pixel
 * strips through a 10-op filter step whose mix packs a cluster (6
 * adder-class + 4 multiplier ops, II = 2), run back to back as the
 * published 84-95% figures were measured. Media code leaves the
 * divider idle, so adders + multipliers are the denominator.
 */
double
imagineMediaUtilization()
{
    imagine::ImagineMachine m;
    constexpr unsigned strips = 10, stripWords = 1632;
    const Addr src = m.allocMem(1 << 20, "pixels");
    imagine::StreamRef in[strips], out[strips];
    for (unsigned s = 0; s < strips; ++s) {
        in[s] = m.allocStream(stripWords, "in");
        out[s] = m.allocStream(stripWords, "out");
        m.loadStream(in[s], imagine::MemPattern::sequential(
                                src + s * stripWords * 4, stripWords));
    }
    m.resetTiming();
    imagine::KernelDesc media;
    media.name = "media_fir";
    media.iterations = stripWords / 8;
    media.adds = 6;
    media.mults = 4;
    media.srfWords = 2;
    media.pipelineDepth = 24;
    media.usefulFlops = std::uint64_t{media.iterations} * 8 * 10;
    for (unsigned s = 0; s < strips; ++s)
        m.runKernel(media, {&in[s]}, {&out[s]}, [] {});
    return 100.0 * static_cast<double>(m.usefulFlops())
           / (static_cast<double>(m.completionTime()) * 8 * 5);
}

std::vector<Claim>
buildClaims()
{
    using enum ClaimUnit;
    using R = ClaimRun;
    std::vector<Claim> rows;
    const auto add = [&rows](Claim c) { rows.push_back(std::move(c)); };

    // §4.2: VIRAM's corner turn with each overhead idealized away.
    add({"viram.ct.precharge_tlb", "4.2", "~21%", Percent, {VIRAM}, CT,
         [](R &r) {
             viram::ViramConfig ideal;
             ideal.rowMissCycles = 0;
             ideal.tlbMissPenalty = 0;
             return saved(cycles(r, VIRAM, CT),
                          viramCt(r.workloads()->matrix, ideal));
         }});
    add({"viram.ct.addr_gen_penalty", "4.2", "~24%", Percent, {VIRAM}, CT,
         [](R &r) {
             viram::ViramConfig wide;
             wide.addrGens = wide.unitStrideWords;
             return saved(cycles(r, VIRAM, CT),
                          viramCt(r.workloads()->matrix, wide));
         },
         "the strided-rate limit binds only together with the row and "
         "TLB costs (with those ideal, 8 generators save 0%)"});

    // §4.3-4.4: Imagine's inter-cluster network and table traffic.
    add({"imagine.cslc.comm", "4.3", "~30%", Percent, {IMAGINE}, CSLC,
         [](R &r) {
             return saved(cycles(r, IMAGINE, CSLC),
                          imagineCslc(r, false).cycles);
         },
         "comm costs only as the FFT kernels' comm-bound II (4 vs 2 "
         "cycles), which the rest of the CSLC dilutes"});
    add({"imagine.cslc.alu_utilization", "4.3", "25.5%", Percent,
         {IMAGINE}, CSLC, [](R &r) {
             return notePct(r, IMAGINE, CSLC, "imagine.alu_utilization");
         }});
    add({"imagine.cslc.ideal_comm.alu_utilization", "4.3", "", Percent,
         {IMAGINE}, CSLC,
         [](R &r) { return imagineCslc(r, false).aluPct; }});
    add({"imagine.bs.memory_fraction", "4.4", "~89%", Percent, {IMAGINE},
         BS, [](R &r) {
             return notePct(r, IMAGINE, BS, "imagine.memory_fraction");
         }});
    add({"imagine.bs.srf_resident_gain", "4.4", "about 2x", Ratio,
         {IMAGINE}, BS,
         [](R &r) {
             const Workloads &work = *r.workloads();
             imagine::ImagineMachine m;
             std::vector<std::int32_t> out;
             const Cycles srf = imagine::beamSteeringImagine(
                 m, r.config().beam, work.tables, out, true);
             requireValid(out == work.beamRef, "the SRF-resident mapping");
             return static_cast<double>(cycles(r, IMAGINE, BS)) / srf;
         },
         "the SRF-resident mapping removes every table reload, not "
         "only the share the paper's estimate assumed"});

    // §4.3: Raw's CSLC: radix choice (op model), load balance over
    // sub-band counts and continuous intervals, cache stalls.
    add({"raw.cslc.radix_op_ratio", "4.3", "about 1.5", Ratio, {RAW},
         CSLC, [](R &) {
             return static_cast<double>(kernels::radix2Ops(128).total())
                    / kernels::mixed128Ops().total();
         }});
    const unsigned paperSets = StudyConfig{}.cslc.subBands;
    const auto idlePct = [](R &r, unsigned sets, unsigned intervals) {
        return sets == r.config().cslc.subBands && intervals == 1
                   ? notePct(r, RAW, CSLC, "raw.idle_fraction")
                   : 100.0 * rawCslc(r, sets, intervals).result.idleFraction;
    };
    add({"raw.cslc.idle_fraction", "4.3", "~8%", Percent, {RAW}, CSLC,
         [=](R &r) { return idlePct(r, paperSets, 1); }});
    add({"raw.cslc.cache_stall_fraction", "4.3", "<10%", Percent, {RAW},
         CSLC, [](R &r) {
             return notePct(r, RAW, CSLC, "raw.cache_stall_fraction");
         }});
    for (const unsigned sets : {64u, 73u, 80u}) {
        add({"raw.cslc.subbands" + std::to_string(sets) + ".idle_fraction",
             "4.3", "", Percent, {RAW}, CSLC,
             [=](R &r) { return idlePct(r, sets, 1); }});
    }

    // §4.5: what AltiVec buys the G4, as ratios of Table-3 cells.
    for (const auto &[k, paper, deviation] :
         {std::tuple{CSLC, "about 6x", ""}, {BS, "about 2x", ""},
          {CT, "1.17x",
           "the G4 cache/bus model recovers more store-miss traffic "
           "through L2 than the real PowerMac did"}}) {
        add({"altivec." + kernelToken(k) + ".gain", "4.5", paper, Ratio,
             {PPC, ALTIVEC}, k,
             [k](R &r) {
                 return static_cast<double>(cycles(r, PPC, k))
                        / cycles(r, ALTIVEC, k);
             },
             deviation});
    }

    // §3.1: corner-turn blocking (VIRAM gather height, G4 block edge);
    // the paper's points are Table 3's.
    for (const unsigned vl : {8u, 16u, 32u, 64u}) {
        add({"viram.ct.vl" + std::to_string(vl) + ".cycles", "3.1", "",
             CycleCount, {VIRAM}, CT, [vl](R &r) {
                 return static_cast<double>(
                     vl == 64 ? cycles(r, VIRAM, CT)
                              : viramCt(r.workloads()->matrix, {}, vl));
             }});
    }
    for (const unsigned edge : {8u, 16u, 32u, 64u, 128u}) {
        add({"ppc.ct.block" + std::to_string(edge) + ".cycles", "3.1", "",
             CycleCount, {PPC}, CT, [edge](R &r) {
                 if (edge == 32)
                     return static_cast<double>(cycles(r, PPC, CT));
                 const WordMatrix &src = r.workloads()->matrix;
                 ppc::PpcMachine m;
                 WordMatrix dst;
                 return static_cast<double>(transposed(
                     ppc::cornerTurnPpc(m, src, dst, false, edge), src,
                     dst));
             }});
    }

    // The paper's sketches, completed: Raw stream mode, Imagine
    // independent FFTs, VIRAM off chip, continuous input.
    add({"raw.cslc.stream_gain", "4.3", "~1.7x", Ratio, {RAW}, CSLC,
         [=](R &r) {
             return static_cast<double>(cycles(r, RAW, CSLC))
                    / rawCslc(r, paperSets, 1, true).result.balancedCycles;
         },
         "the emitted butterfly is already scheduled (~25 cycles, not "
         "the ~40 the estimate assumed), so less headroom remains"});
    add({"raw.cslc.stream.cache_stall_cycles", "4.3", "", CycleCount,
         {RAW}, CSLC, [=](R &r) {
             return static_cast<double>(
                 rawCslc(r, paperSets, 1, true).cacheStallCycles);
         }});
    add({"imagine.cslc.independent.saving", "4.3", "", Percent, {IMAGINE},
         CSLC, [](R &r) {
             return saved(cycles(r, IMAGINE, CSLC),
                          imagineCslc(r, true).cycles);
         }});
    add({"imagine.cslc.independent.alu_utilization", "4.3", "", Percent,
         {IMAGINE}, CSLC,
         [](R &r) { return imagineCslc(r, true).aluPct; }});
    add({"imagine.cslc.independent.memory_fraction", "4.3", "", Percent,
         {IMAGINE}, CSLC,
         [](R &r) { return imagineCslc(r, true).memoryPct; }});
    for (const unsigned n : {512u, 1024u, 1536u, 2048u}) {
        const std::string size = ".n" + std::to_string(n);
        add({"viram.ct" + size + ".cycles_per_word", "4.6", "",
             CyclesPerWord, {VIRAM}, CT,
             [n](R &r) { return capacityCt(r, VIRAM, n); }});
        add({"raw.ct" + size + ".cycles_per_word", "4.6", "", CyclesPerWord,
             {RAW}, CT, [n](R &r) { return capacityCt(r, RAW, n); }});
        add({"viram.ct" + size + ".vs_raw", "4.6", "", Ratio, {VIRAM, RAW},
             CT, [n](R &r) {
                 return capacityCt(r, VIRAM, n) / capacityCt(r, RAW, n);
             }});
    }
    for (const unsigned n : {1u, 2u, 4u, 8u}) {
        const std::string id = "raw.cslc.intervals" + std::to_string(n);
        add({id + ".idle_fraction", "4.3", "", Percent, {RAW}, CSLC,
             [=](R &r) { return idlePct(r, paperSets, n); }});
        add({id + ".cycles_per_interval", "4.3", "", CycleCount, {RAW},
             CSLC, [=](R &r) {
                 return static_cast<double>(
                     n == 1 ? *cell(r, RAW, CSLC).measuredUnbalanced
                            : rawCslc(r, paperSets, n).result.cycles / n);
             }});
    }

    // Section 2: the chip teams' own published numbers (Raw: up to 12x
    // on ILP codes, >16x streaming; Imagine media kernels 84-95%).
    add({"raw.matmul.tile_speedup", "2.3", "12-16x", Ratio, {RAW},
         std::nullopt, [](R &) {
             raw::RawConfig single;
             single.meshWidth = single.meshHeight = 1;
             raw::RawMachine sixteen, one(single);
             std::vector<Word> c16, c1;
             const double t16 = rawMatmul(sixteen, c16);
             const double t1 = rawMatmul(one, c1);
             requireValid(c1 == c16, "the 16-tile matrix multiply");
             return t1 / t16;
         }});
    add({"imagine.media.alu_utilization", "2.2", "84-95%", Percent,
         {IMAGINE}, std::nullopt,
         [](R &) { return imagineMediaUtilization(); }});
    return rows;
}

} // namespace

const std::vector<Claim> &
claims()
{
    static const std::vector<Claim> rows = buildClaims();
    return rows;
}

double
measureClaim(const Claim &claim, ClaimRun &run)
{
    measuring = &claim;
    const double value = claim.measure(run);
    measuring = nullptr;
    return value;
}

ClaimStatus
claimStatus(const Claim &claim, double value)
{
    const auto band = bandFromWording(claim.paper);
    if (!band)
        return ClaimStatus::Pinned;
    if (claim.deviation.empty())
        return band->contains(value) ? ClaimStatus::InBand
                                     : ClaimStatus::OutOfBand;
    return band->contains(value) ? ClaimStatus::StaleDeviation
                                 : ClaimStatus::KnownDeviation;
}

std::string
formatClaimValue(const Claim &claim, double value)
{
    switch (claim.unit) {
      case ClaimUnit::Percent: return Table::num(value, 1) + "%";
      case ClaimUnit::Ratio: return Table::num(value, 2) + "x";
      case ClaimUnit::CyclesPerWord: return Table::num(value, 3);
      case ClaimUnit::CycleCount:
        return Table::num(static_cast<std::uint64_t>(value));
    }
    triarch_panic("bad ClaimUnit");
}

bool
claimSelected(const Claim &claim, const std::vector<MachineId> &machines,
              const std::vector<KernelId> &kernels)
{
    const auto has = [](const auto &set, auto id) {
        return std::ranges::find(set, id) != set.end();
    };
    return std::ranges::all_of(claim.machines,
                               [&](MachineId m) { return has(machines, m); })
           && (!claim.kernel || has(kernels, *claim.kernel));
}

int
runClaims(ParallelRunner &runner, const std::vector<MachineId> &machines,
          const std::vector<KernelId> &kernels, bool csv,
          ResultSink &sink, std::ostream &os)
{
    std::vector<const Claim *> rows;
    std::vector<Cell> cells;
    for (const Claim &c : claims()) {
        if (!claimSelected(c, machines, kernels))
            continue;
        rows.push_back(&c);
        for (MachineId m : c.kernel ? c.machines : std::vector<MachineId>{}) {
            if (std::ranges::find(cells, Cell{m, *c.kernel}) == cells.end())
                cells.push_back({m, *c.kernel});
        }
    }
    if (rows.empty()) {
        std::cerr << "claims: no claim row runs on only the selected "
                     "--machines and --kernels\n";
        return 2;
    }
    // The Table-3 halves first, concurrently; rows then read the cache.
    sink.add(runner.runCells(cells));

    static const char *statuses[] = {"pinned", "in band",
                                     "known deviation", "OUT OF BAND",
                                     "STALE DEVIATION"};
    Table t("The paper's Section 2-4 claims, measured");
    t.header({"Id", "Section", "Paper", "Band", "Measured", "Status"});
    std::string deviations;
    unsigned failed = 0;
    ClaimRun run(runner);
    for (const Claim *c : rows) {
        const double value = measureClaim(*c, run);
        const ClaimStatus status = claimStatus(*c, value);
        const auto b = bandFromWording(c->paper);
        const std::string band =
            !b ? "-"
               : (b->open ? "(" : "[") + formatClaimValue(*c, b->lo) + ", "
                     + formatClaimValue(*c, b->hi) + (b->open ? ")" : "]");
        const std::string shown = formatClaimValue(*c, value);
        t.row({c->id, c->section, c->paper.empty() ? "-" : c->paper, band,
               shown, statuses[static_cast<unsigned>(status)]});
        if (!c->deviation.empty())
            deviations += "  " + c->id + ": " + c->deviation + "\n";
        if (status >= ClaimStatus::OutOfBand) {
            std::cerr << "claims: " << c->id << " = " << shown
                      << (status == ClaimStatus::OutOfBand
                              ? " left its band "
                              : " re-entered its band (stale deviation) ")
                      << band << "\n";
            ++failed;
        }
    }
    if (csv) {
        t.renderCsv(os);
        return failed ? 1 : 0;
    }
    t.render(os);
    os << "\nKnown deviations from the band the paper's wording implies:\n"
       << deviations << "\n"
       << rows.size() << " rows, " << failed << " failed\n";
    return failed ? 1 : 0;
}

} // namespace triarch::study
