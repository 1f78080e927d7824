#include "machine.hh"

#include <algorithm>
#include <cstring>
#include <sstream>

#include "sim/bitutil.hh"
#include "sim/logging.hh"

namespace triarch::viram
{

ViramMachine::ViramMachine(const ViramConfig &machine_config)
    : cfg(machine_config),
      dram(cfg.memBytes + cfg.offchipBytes),
      vregs(cfg.numVregs, std::vector<Word>(cfg.maxVl, 0)),
      curVl(cfg.maxVl), regReady(cfg.numVregs, 0),
      openRow(cfg.banks, ~Addr{0}),
      tlb("viram.tlb", cfg.tlbEntries, cfg.pageBytes,
          cfg.tlbMissPenalty),
      group("viram")
{
    triarch_assert(cfg.lanes > 0 && cfg.maxVl % cfg.lanes == 0,
                   "maxVl must be a multiple of the lane count");
    triarch_assert(isPowerOf2(cfg.bankInterleaveBytes)
                       && isPowerOf2(cfg.banks)
                       && isPowerOf2(cfg.rowBytes),
                   "bank interleave, bank count and row size must be "
                   "powers of two");
    group.addScalar("vector_insts", &_vinsts, "vector instructions");
    group.addScalar("scalar_cycles", &_scalarCycles,
                    "scalar bookkeeping cycles");
    group.addScalar("vau0_busy", &_vau0Busy, "VAU0 busy cycles");
    group.addScalar("vau1_busy", &_vau1Busy, "VAU1 busy cycles");
    group.addScalar("vmu_busy", &_vmuBusy, "memory unit busy cycles");
    group.addScalar("row_overhead", &_rowCycles,
                    "DRAM precharge/activate cycles on critical path");
    group.addScalar("tlb_overhead", &_tlbCycles, "TLB refill cycles");
    group.addScalar("row_misses", &_rowMisses, "DRAM row misses");
    group.addScalar("perm_insts", &_perms, "shuffle instructions");
    group.addScalar("mem_words", &_memWords, "words moved to/from DRAM");
    group.addAverage("avg_vl", &_avgVl,
                     "mean vector length per instruction");
    accountStats.registerIn(group);
}

Addr
ViramMachine::alloc(std::uint64_t bytes, const std::string &what)
{
    const Addr addr = roundUp(allocNext, 64);
    if (addr + bytes > dram.size()) {
        triarch_fatal("VIRAM on-chip DRAM exhausted allocating ", bytes,
                      " bytes for ", what);
    }
    allocNext = addr + bytes;
    dram.adviseDense(addr, bytes);
    return addr;
}

void
ViramMachine::pokeWords(Addr addr, std::span<const Word> words)
{
    checkAddr(addr, words.size() * 4);
    std::memcpy(dram.data() + addr, words.data(), words.size() * 4);
}

std::vector<Word>
ViramMachine::peekWords(Addr addr, std::size_t count) const
{
    checkAddr(addr, count * 4);
    std::vector<Word> out(count);
    std::memcpy(out.data(), dram.data() + addr, count * 4);
    return out;
}

unsigned
ViramMachine::setvl(unsigned n)
{
    curVl = std::min(n, cfg.maxVl);
    triarch_assert(curVl > 0, "vector length must be positive");
    return curVl;
}

std::span<const Word>
ViramMachine::read(Vreg v) const
{
    return {vregs[v].data(), curVl};
}

std::span<Word>
ViramMachine::write(Vreg v)
{
    return {vregs[v].data(), curVl};
}

void
ViramMachine::checkReg(Vreg v) const
{
    triarch_assert(v < cfg.numVregs, "vector register ", v,
                   " out of range");
}

void
ViramMachine::checkAddr(Addr addr, std::uint64_t bytes) const
{
    triarch_assert(addr + bytes <= dram.size(),
                   "VIRAM address 0x", std::hex, addr,
                   " + ", std::dec, bytes, " outside on-chip DRAM");
}

ViramMachine::Unit
ViramMachine::pickVau(bool prefer_vau1) const
{
    if (unitFree[VAU0] == unitFree[VAU1])
        return prefer_vau1 ? VAU1 : VAU0;
    return unitFree[VAU0] < unitFree[VAU1] ? VAU0 : VAU1;
}

void
ViramMachine::issue(Unit unit, Cycles busy, Cycles startup,
                    std::initializer_list<Vreg> srcs, int dst)
{
    // The scalar core issues one vector instruction per cycle.
    issueCycle += 1;

    Cycles start = std::max(issueCycle, unitFree[unit]);
    for (Vreg s : srcs)
        start = std::max(start, regReady[s]);

    const Cycles done = start + startup + busy;
    unitFree[unit] = start + busy;
    if (dst >= 0) {
        // Chaining: a consumer on another unit may start once the
        // first elements stream out; same-unit consumers still wait
        // for the unit to free.
        regReady[static_cast<Vreg>(dst)] =
            start + startup + std::min(busy, cfg.chainLatency);
    }
    lastFinish = std::max(lastFinish, done);

    ++_vinsts;
    _avgVl.sample(curVl);
    timeline.add(unit == VMU ? stats::CycleCategory::DramDma
                             : stats::CycleCategory::Compute,
                 start, start + busy);
    // Channel index == Unit index by construction.
    hwSamp.addRange(static_cast<std::size_t>(unit), start,
                    start + busy);
    switch (unit) {
      case VAU0: _vau0Busy += busy; break;
      case VAU1: _vau1Busy += busy; break;
      case VMU: _vmuBusy += busy; break;
      default: triarch_panic("bad unit");
    }
}

Cycles
ViramMachine::memAccessCyclesIndexed(std::span<const Addr> addrs)
{
    // Gathers/scatters cannot exceed the address-generator rate and
    // never spill to the off-chip DMA path (asserted by callers).
    Cycles cycles = ceilDiv(addrs.size(), cfg.addrGens);
    std::uint64_t misses = 0;
    Cycles tlbPenalty = 0;
    for (Addr a : addrs) {
        const auto [bank, row] = bankRowOf(a);
        if (openRow[bank] != row) {
            openRow[bank] = row;
            ++misses;
        }
        tlbPenalty += tlb.access(a);
    }
    const Cycles rowOverhead = static_cast<Cycles>(
        static_cast<double>(misses * cfg.rowMissCycles)
        * cfg.rowOverlapFactor / cfg.banks);
    _rowMisses += misses;
    _rowCycles += rowOverhead;
    _tlbCycles += tlbPenalty;
    _memWords += addrs.size();
    return cycles + rowOverhead + tlbPenalty;
}

Cycles
ViramMachine::memAccessCycles(Addr addr, Addr stride_bytes, bool unit)
{
    // Accesses that touch memory beyond the on-chip capacity go
    // through the off-chip DMA interface: 2 words/cycle regardless
    // of stride, plus a fixed transfer-setup latency. The bank/TLB
    // machinery below models the on-chip DRAM only.
    const Addr last = addr + (curVl - 1) * stride_bytes;
    if (last >= cfg.memBytes) {
        _memWords += curVl;
        return ceilDiv(curVl, cfg.offchipWordsPerCycle)
               + cfg.offchipLatency;
    }

    const unsigned throughput =
        unit ? cfg.unitStrideWords : cfg.addrGens;
    Cycles cycles = ceilDiv(curVl, throughput);

    // Span walk (D13): the bank and row of an element depend only on
    // its interleave chunk, so only the first element of each chunk
    // run can change the open-row state; likewise a TLB run covers
    // every element on one page in one probe. The bank state and the
    // TLB are independent structures, so splitting the element
    // sequence into two run walks leaves both (and all counters)
    // exactly as the interleaved per-element walk of
    // memAccessCyclesIndexed() would (the ViramSpanWalk tests in
    // test_viram.cc hold the two equal).
    std::uint64_t misses = 0;
    Cycles tlbPenalty = 0;
    const Addr ilv = cfg.bankInterleaveBytes;
    for (unsigned i = 0; i < curVl;) {
        const Addr a = addr + static_cast<Addr>(i) * stride_bytes;
        const auto [bank, row] = bankRowOf(a);
        if (openRow[bank] != row) {
            openRow[bank] = row;
            ++misses;
        }
        if (stride_bytes == 0)
            break;
        const Addr left = ilv - 1 - (a & (ilv - 1));
        const std::uint64_t run = 1 + left / stride_bytes;
        i += static_cast<unsigned>(
            std::min<std::uint64_t>(run, curVl - i));
    }
    for (unsigned i = 0; i < curVl;) {
        const Addr a = addr + static_cast<Addr>(i) * stride_bytes;
        std::uint64_t run = curVl - i;
        if (stride_bytes != 0) {
            const Addr left =
                cfg.pageBytes - 1 - (a & (cfg.pageBytes - 1));
            run = std::min<std::uint64_t>(run, 1 + left / stride_bytes);
        }
        tlbPenalty += tlb.accessRun(a, run);
        i += static_cast<unsigned>(run);
    }

    // Row misses across banks overlap with transfers; only the
    // configured fraction reaches the critical path, spread over the
    // banks that can activate in parallel.
    const Cycles rowOverhead = static_cast<Cycles>(
        static_cast<double>(misses * cfg.rowMissCycles)
        * cfg.rowOverlapFactor / cfg.banks);

    _rowMisses += misses;
    _rowCycles += rowOverhead;
    _tlbCycles += tlbPenalty;
    _memWords += curVl;
    return cycles + rowOverhead + tlbPenalty;
}

void
ViramMachine::vldUnit(Vreg vd, Addr addr)
{
    checkReg(vd);
    checkAddr(addr, static_cast<std::uint64_t>(curVl) * 4);
    auto out = write(vd);
    std::memcpy(out.data(), dram.data() + addr, curVl * 4);
    issue(VMU, memAccessCycles(addr, 4, true), cfg.memStartup, {},
          static_cast<int>(vd));
}

void
ViramMachine::vldStride(Vreg vd, Addr addr, Addr strideBytes)
{
    checkReg(vd);
    checkAddr(addr + (curVl - 1) * strideBytes, 4);
    auto out = write(vd);
    for (unsigned i = 0; i < curVl; ++i) {
        std::memcpy(&out[i], dram.data() + addr + i * strideBytes, 4);
    }
    issue(VMU, memAccessCycles(addr, strideBytes, strideBytes == 4),
          cfg.memStartup, {}, static_cast<int>(vd));
}

void
ViramMachine::vstUnit(Vreg vs, Addr addr)
{
    checkReg(vs);
    checkAddr(addr, static_cast<std::uint64_t>(curVl) * 4);
    auto in = read(vs);
    std::memcpy(dram.data() + addr, in.data(), curVl * 4);
    issue(VMU, memAccessCycles(addr, 4, true), 0, {vs}, -1);
}

void
ViramMachine::vstStride(Vreg vs, Addr addr, Addr strideBytes)
{
    checkReg(vs);
    checkAddr(addr + (curVl - 1) * strideBytes, 4);
    auto in = read(vs);
    for (unsigned i = 0; i < curVl; ++i) {
        std::memcpy(dram.data() + addr + i * strideBytes, &in[i], 4);
    }
    issue(VMU, memAccessCycles(addr, strideBytes, strideBytes == 4), 0,
          {vs}, -1);
}

void
ViramMachine::vldIndexed(Vreg vd, Addr base, Vreg vidx)
{
    checkReg(vd);
    checkReg(vidx);
    auto idx = read(vidx);
    std::vector<Addr> addrs(curVl);
    auto out = write(vd);
    for (unsigned i = 0; i < curVl; ++i) {
        addrs[i] = base + static_cast<Addr>(idx[i]) * 4;
        checkAddr(addrs[i], 4);
        triarch_assert(addrs[i] + 4 <= cfg.memBytes,
                       "indexed access must stay on chip");
        std::memcpy(&out[i], dram.data() + addrs[i], 4);
    }
    issue(VMU, memAccessCyclesIndexed(addrs), cfg.memStartup, {vidx},
          static_cast<int>(vd));
}

void
ViramMachine::vstIndexed(Vreg vs, Addr base, Vreg vidx)
{
    checkReg(vs);
    checkReg(vidx);
    auto idx = read(vidx);
    auto in = read(vs);
    std::vector<Addr> addrs(curVl);
    for (unsigned i = 0; i < curVl; ++i) {
        addrs[i] = base + static_cast<Addr>(idx[i]) * 4;
        checkAddr(addrs[i], 4);
        triarch_assert(addrs[i] + 4 <= cfg.memBytes,
                       "indexed access must stay on chip");
        std::memcpy(dram.data() + addrs[i], &in[i], 4);
    }
    issue(VMU, memAccessCyclesIndexed(addrs), 0, {vs, vidx}, -1);
}

void
ViramMachine::vbcast(Vreg vd, Word value)
{
    checkReg(vd);
    for (auto &w : write(vd))
        w = value;
    issue(pickVau(), ceilDiv(curVl, cfg.lanes), cfg.arithStartup, {},
          static_cast<int>(vd));
}

namespace
{

template <typename F>
void
elementwiseF(std::span<const Word> a, std::span<const Word> b,
             std::span<Word> d, F f)
{
    for (std::size_t i = 0; i < d.size(); ++i)
        d[i] = floatToWord(f(wordToFloat(a[i]), wordToFloat(b[i])));
}

} // namespace

void
ViramMachine::vaddF(Vreg vd, Vreg va, Vreg vb)
{
    checkReg(vd); checkReg(va); checkReg(vb);
    elementwiseF(read(va), read(vb), write(vd),
                 [](float x, float y) { return x + y; });
    issue(VAU0, ceilDiv(curVl, cfg.lanes), cfg.arithStartup, {va, vb},
          static_cast<int>(vd));
}

void
ViramMachine::vsubF(Vreg vd, Vreg va, Vreg vb)
{
    checkReg(vd); checkReg(va); checkReg(vb);
    elementwiseF(read(va), read(vb), write(vd),
                 [](float x, float y) { return x - y; });
    issue(VAU0, ceilDiv(curVl, cfg.lanes), cfg.arithStartup, {va, vb},
          static_cast<int>(vd));
}

void
ViramMachine::vmulF(Vreg vd, Vreg va, Vreg vb)
{
    checkReg(vd); checkReg(va); checkReg(vb);
    elementwiseF(read(va), read(vb), write(vd),
                 [](float x, float y) { return x * y; });
    issue(VAU0, ceilDiv(curVl, cfg.lanes), cfg.arithStartup, {va, vb},
          static_cast<int>(vd));
}

void
ViramMachine::vnegF(Vreg vd, Vreg va)
{
    checkReg(vd); checkReg(va);
    auto in = read(va);
    auto out = write(vd);
    for (std::size_t i = 0; i < out.size(); ++i)
        out[i] = floatToWord(-wordToFloat(in[i]));
    issue(VAU0, ceilDiv(curVl, cfg.lanes), cfg.arithStartup, {va},
          static_cast<int>(vd));
}

void
ViramMachine::vscaleF(Vreg vd, Vreg va, float s)
{
    checkReg(vd); checkReg(va);
    auto in = read(va);
    auto out = write(vd);
    for (std::size_t i = 0; i < out.size(); ++i)
        out[i] = floatToWord(s * wordToFloat(in[i]));
    issue(VAU0, ceilDiv(curVl, cfg.lanes), cfg.arithStartup, {va},
          static_cast<int>(vd));
}

void
ViramMachine::vaddI(Vreg vd, Vreg va, Vreg vb)
{
    checkReg(vd); checkReg(va); checkReg(vb);
    auto a = read(va);
    auto b = read(vb);
    auto d = write(vd);
    for (std::size_t i = 0; i < d.size(); ++i)
        d[i] = a[i] + b[i];
    issue(pickVau(), ceilDiv(curVl, cfg.lanes), cfg.arithStartup,
          {va, vb}, static_cast<int>(vd));
}

void
ViramMachine::vsubI(Vreg vd, Vreg va, Vreg vb)
{
    checkReg(vd); checkReg(va); checkReg(vb);
    auto a = read(va);
    auto b = read(vb);
    auto d = write(vd);
    for (std::size_t i = 0; i < d.size(); ++i)
        d[i] = a[i] - b[i];
    issue(pickVau(), ceilDiv(curVl, cfg.lanes), cfg.arithStartup,
          {va, vb}, static_cast<int>(vd));
}

void
ViramMachine::vaddIs(Vreg vd, Vreg va, std::int32_t imm)
{
    checkReg(vd); checkReg(va);
    auto a = read(va);
    auto d = write(vd);
    for (std::size_t i = 0; i < d.size(); ++i)
        d[i] = a[i] + static_cast<Word>(imm);
    issue(pickVau(), ceilDiv(curVl, cfg.lanes), cfg.arithStartup, {va},
          static_cast<int>(vd));
}

void
ViramMachine::vshlI(Vreg vd, Vreg va, unsigned sh)
{
    checkReg(vd); checkReg(va);
    auto a = read(va);
    auto d = write(vd);
    for (std::size_t i = 0; i < d.size(); ++i)
        d[i] = a[i] << sh;
    issue(pickVau(), ceilDiv(curVl, cfg.lanes), cfg.arithStartup, {va},
          static_cast<int>(vd));
}

void
ViramMachine::vsraI(Vreg vd, Vreg va, unsigned sh)
{
    checkReg(vd); checkReg(va);
    auto a = read(va);
    auto d = write(vd);
    for (std::size_t i = 0; i < d.size(); ++i) {
        d[i] = static_cast<Word>(
            static_cast<std::int32_t>(a[i]) >> sh);
    }
    issue(pickVau(), ceilDiv(curVl, cfg.lanes), cfg.arithStartup, {va},
          static_cast<int>(vd));
}

void
ViramMachine::vperm2(Vreg vd, Vreg va, Vreg vb,
                     std::span<const std::uint16_t> idx)
{
    checkReg(vd); checkReg(va); checkReg(vb);
    triarch_assert(idx.size() >= curVl, "permute table shorter than vl");

    // Snapshot sources: vd may alias va or vb.
    std::vector<Word> a(vregs[va].begin(), vregs[va].end());
    std::vector<Word> b(vregs[vb].begin(), vregs[vb].end());
    auto d = write(vd);
    for (unsigned i = 0; i < curVl; ++i) {
        const std::uint16_t j = idx[i];
        triarch_assert(j < 2 * cfg.maxVl, "permute index out of range");
        d[i] = j < cfg.maxVl ? a[j] : b[j - cfg.maxVl];
    }
    ++_perms;
    issue(pickVau(true), ceilDiv(curVl, cfg.lanes), cfg.arithStartup,
          {va, vb}, static_cast<int>(vd));
}

void
ViramMachine::vperm(Vreg vd, Vreg va, std::span<const std::uint16_t> idx)
{
    vperm2(vd, va, va, idx);
    // vperm2 counted one instruction and one perm already.
}

void
ViramMachine::scalarOps(unsigned n)
{
    issueCycle += n;
    _scalarCycles += n;
    timeline.add(stats::CycleCategory::SetupReadback, issueCycle - n,
                 issueCycle);
    lastFinish = std::max(lastFinish, issueCycle);
}

Cycles
ViramMachine::completionTime() const
{
    return std::max(lastFinish, issueCycle);
}

stats::CycleBreakdown
ViramMachine::cycleBreakdown(Cycles total)
{
    const stats::CycleBreakdown b =
        timeline.resolve(total, stats::CycleCategory::NetworkSync);
    accountStats.record(b);
    return b;
}

hw::HwCell
ViramMachine::hwCell(Cycles total,
                     const stats::CycleBreakdown &breakdown)
{
    auto frac = [total](std::uint64_t part) {
        return total ? std::min(1.0, static_cast<double>(part)
                                         / static_cast<double>(total))
                     : 0.0;
    };
    // Lane utilization averages the two VAUs: every busy cycle keeps
    // all cfg.lanes lanes of that unit occupied in this model.
    const double laneUtil =
        total ? std::min(1.0,
                         static_cast<double>(_vau0Busy.value()
                                             + _vau1Busy.value())
                             / (2.0 * static_cast<double>(total)))
              : 0.0;
    const double vmuUtil = frac(_vmuBusy.value());
    const std::uint64_t tlbTotal = tlb.hits() + tlb.misses();
    // tlb.accessRun() counts every element of a page run, and the
    // row walk's misses are element-exact too, so both rates equal a
    // per-element walk's (D13); row-probe *counts* do not, which is
    // why there is no probe-based hit rate here.
    const double tlbHit =
        tlbTotal ? static_cast<double>(tlb.hits()) / tlbTotal : 0.0;
    const double rowMissRate =
        _memWords.value()
            ? std::min(1.0, static_cast<double>(_rowMisses.value())
                                / static_cast<double>(
                                      _memWords.value()))
            : 0.0;
    const double avgVlFrac =
        cfg.maxVl ? std::min(1.0, _avgVl.mean() / cfg.maxVl) : 0.0;

    hw::HwCell cell;
    cell.cycles = total;
    cell.breakdown = breakdown;
    cell.metrics = {
        {"lane_utilization", laneUtil, true},
        {"vmu_utilization", vmuUtil, true},
        {"tlb_hit_rate", tlbHit, true},
        {"row_miss_rate", rowMissRate, true},
        {"avg_vl_fraction", avgVlFrac, true},
        {"mem_words_per_cycle",
         total ? static_cast<double>(_memWords.value())
                     / static_cast<double>(total)
               : 0.0,
         false},
    };

    cell.verdict.category = hw::dominantCategory(breakdown);
    switch (cell.verdict.category) {
      case stats::CycleCategory::Compute:
        cell.verdict.component = "vau";
        cell.verdict.detail = "bound by vector arithmetic, lane util "
                              + hw::fmt2(laneUtil) + ", avg vl frac "
                              + hw::fmt2(avgVlFrac);
        break;
      case stats::CycleCategory::CacheStall:
        cell.verdict.component = "tlb";
        cell.verdict.detail = "bound by TLB refills, tlb hit "
                              + hw::fmt2(tlbHit);
        break;
      case stats::CycleCategory::DramDma:
        // Within the memory-unit category, name the DRAM banks when
        // row overhead is the larger charge, else the unit itself.
        if (_rowCycles.value() > 0
            && _rowCycles.value() >= _tlbCycles.value()) {
            cell.verdict.component = "dram";
            cell.verdict.detail = "bound by DRAM row misses, "
                                  "row miss rate "
                                  + hw::fmt2(rowMissRate)
                                  + ", vmu util " + hw::fmt2(vmuUtil);
        } else {
            cell.verdict.component = "vmu";
            cell.verdict.detail = "bound by the vector memory unit, "
                                  "vmu util "
                                  + hw::fmt2(vmuUtil) + ", tlb hit "
                                  + hw::fmt2(tlbHit);
        }
        break;
      case stats::CycleCategory::NetworkSync:
        cell.verdict.component = "network";
        cell.verdict.detail =
            "chaining/startup idle dominates, lane util "
            + hw::fmt2(laneUtil);
        break;
      case stats::CycleCategory::SetupReadback:
        cell.verdict.component = "scalar";
        cell.verdict.detail = "scalar-core bookkeeping dominates";
        break;
    }

    cell.timeline = hwSamp.finalize(completionTime());
    return cell;
}

void
ViramMachine::resetTiming()
{
    issueCycle = 0;
    lastFinish = 0;
    std::fill(std::begin(unitFree), std::end(unitFree), Cycles{0});
    std::fill(regReady.begin(), regReady.end(), Cycles{0});
    std::fill(openRow.begin(), openRow.end(), ~Addr{0});
    timeline.clear();
    hwSamp.reset();
    tlb.flush();
    group.resetAll();
    tlb.statGroup().resetAll();
}

std::string
ViramMachine::describe() const
{
    std::ostringstream os;
    os << "VIRAM (processor-in-memory vector chip, UC Berkeley)\n"
       << "  scalar core + 2 vector arithmetic units, "
       << cfg.lanes << " x 32-bit lanes each\n"
       << "  vector FP on VAU0 only; " << cfg.numVregs
       << " vregs x " << cfg.maxVl << " elements (8KB register file)\n"
       << "  " << cfg.addrGens << " address generators ("
       << cfg.addrGens << " strided words/cycle, "
       << cfg.unitStrideWords << " sequential words/cycle)\n"
       << "  on-chip DRAM: " << cfg.memBytes / (1024 * 1024)
       << " MB in 2 wings x " << cfg.banks / 2
       << " banks, crossbar to the vector unit\n"
       << "  clock " << cfg.clockMhz << " MHz, peak "
       << (2.0 * cfg.lanes * cfg.clockMhz / 1000.0)
       << " GOPS (32-bit), 1.6 GFLOPS\n";
    return os.str();
}

} // namespace triarch::viram
