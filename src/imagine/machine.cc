#include "machine.hh"

#include <algorithm>
#include <cstring>
#include <sstream>

#include "sim/bitutil.hh"
#include "sim/logging.hh"
#include "sim/trace.hh"

namespace triarch::imagine
{

ImagineMachine::ImagineMachine(const ImagineConfig &machine_config)
    : cfg(machine_config),
      dram(cfg.memBytes),
      srf(cfg.srfBytes / 4, 0),
      allocator(cfg.srfBytes, cfg.srfBlockBytes),
      engineFree(cfg.memEngines, 0), group("imagine")
{
    for (unsigned e = 0; e < cfg.memEngines; ++e) {
        channels.push_back(
            std::make_unique<mem::DramModel>(cfg.dramChannel(e)));
    }
    group.addScalar("cluster_busy", &_clusterBusy,
                    "cycles the cluster array executed kernels");
    group.addScalar("mem_busy", &_memBusy,
                    "engine cycles spent on stream transfers");
    group.addScalar("mem_words", &_memWords, "words moved to/from DRAM");
    group.addScalar("host_cycles", &_hostCycles,
                    "host issue overhead cycles");
    group.addScalar("useful_flops", &_usefulFlops,
                    "algorithmically required flops");
    group.addScalar("comm_ops", &_commOps, "inter-cluster words");
    group.addScalar("kernels", &_kernels, "kernel invocations");
    group.addScalar("stream_ops", &_streamOps, "stream load/store ops");
    group.addScalar("desc_stalls", &_descStalls,
                    "issues stalled on stream descriptor registers");
    group.addAverage("avg_kernel_ii", &_avgKernelIi,
                     "mean initiation interval per kernel invocation");
    accountStats.registerIn(group);
}

Addr
ImagineMachine::allocMem(std::uint64_t bytes, const std::string &what)
{
    const Addr addr = roundUp(allocNext, 64);
    if (addr + bytes > dram.size()) {
        triarch_fatal("Imagine DRAM exhausted allocating ", bytes,
                      " bytes for ", what);
    }
    allocNext = addr + bytes;
    dram.adviseDense(addr, bytes);
    return addr;
}

void
ImagineMachine::pokeWords(Addr addr, std::span<const Word> words)
{
    triarch_assert(addr + words.size() * 4 <= dram.size(),
                   "poke outside DRAM");
    std::memcpy(dram.data() + addr, words.data(), words.size() * 4);
}

std::vector<Word>
ImagineMachine::peekWords(Addr addr, std::size_t count) const
{
    triarch_assert(addr + count * 4 <= dram.size(), "peek outside DRAM");
    std::vector<Word> out(count);
    std::memcpy(out.data(), dram.data() + addr, count * 4);
    return out;
}

StreamRef
ImagineMachine::allocStream(unsigned words, const std::string &what)
{
    return allocator.alloc(words, what);
}

void
ImagineMachine::freeStream(const StreamRef &ref)
{
    allocator.free(ref);
    for (auto it = readyList.begin(); it != readyList.end(); ++it) {
        if (it->first == ref.id) {
            readyList.erase(it);
            break;
        }
    }
}

std::span<Word>
ImagineMachine::srfData(const StreamRef &ref)
{
    triarch_assert(ref.valid(), "invalid stream");
    return {srf.data() + ref.offsetWords, ref.words};
}

std::span<const Word>
ImagineMachine::srfData(const StreamRef &ref) const
{
    triarch_assert(ref.valid(), "invalid stream");
    return {srf.data() + ref.offsetWords, ref.words};
}

Cycles
ImagineMachine::streamReady(const StreamRef &ref) const
{
    for (const auto &[id, when] : readyList) {
        if (id == ref.id)
            return when;
    }
    return 0;
}

void
ImagineMachine::setStreamReady(const StreamRef &ref, Cycles when)
{
    for (auto &[id, entry] : readyList) {
        if (id == ref.id) {
            entry = when;
            return;
        }
    }
    readyList.emplace_back(ref.id, when);
}

Cycles
ImagineMachine::issueOp()
{
    hostCycle += cfg.hostIssueCycles;
    _hostCycles += cfg.hostIssueCycles;
    timeline.add(stats::CycleCategory::SetupReadback,
                 hostCycle - cfg.hostIssueCycles, hostCycle);
    if (inflight.size() >= cfg.streamDescRegs) {
        const Cycles oldest = inflight.front();
        inflight.pop_front();
        if (oldest > hostCycle) {
            ++_descStalls;
            hostCycle = oldest;
        }
    }
    return hostCycle;
}

void
ImagineMachine::loadStream(const StreamRef &ref,
                           const MemPattern &pattern)
{
    trace::TraceScope scope("imagine.load_stream", "imagine", &group);
    triarch_assert(pattern.totalWords() == ref.words,
                   "stream/pattern length mismatch");
    triarch_assert(pattern.base
                       + (pattern.records - 1) * pattern.strideBytes
                       + pattern.recordWords * 4 <= dram.size(),
                   "stream load outside DRAM");

    // Functional copy DRAM -> SRF, record by record (one flat copy
    // when the records abut).
    Word *dst = srf.data() + ref.offsetWords;
    if (pattern.strideBytes
        == static_cast<Addr>(pattern.recordWords) * 4) {
        std::memcpy(dst, dram.data() + pattern.base,
                    static_cast<std::size_t>(pattern.totalWords()) * 4);
    } else {
        for (unsigned r = 0; r < pattern.records; ++r) {
            std::memcpy(dst + static_cast<std::size_t>(r)
                        * pattern.recordWords,
                        dram.data() + pattern.base
                        + r * pattern.strideBytes,
                        pattern.recordWords * 4);
        }
    }

    const Cycles issued = issueOp();
    const unsigned e = static_cast<unsigned>(
        std::min_element(engineFree.begin(), engineFree.end())
        - engineFree.begin());
    const Cycles start = std::max(issued, engineFree[e]);

    mem::AccessWindow window{start, start};
    for (unsigned r = 0; r < pattern.records; ++r) {
        window = channels[e]->access(
            pattern.base + r * pattern.strideBytes, pattern.recordWords,
            start);
    }
    // The engine itself moves at most one word per cycle.
    const Cycles engineTime = start + pattern.totalWords();
    const Cycles finish = std::max(window.finish, engineTime);

    engineFree[e] = finish;
    setStreamReady(ref, finish);
    inflight.push_back(finish);
    lastFinish = std::max(lastFinish, finish);
    timeline.add(stats::CycleCategory::DramDma, start, finish);
    hwSamp.addRange(1, start, finish);
    _memBusy += finish - start;
    _memWords += pattern.totalWords();
    ++_streamOps;
}

void
ImagineMachine::storeStream(const StreamRef &ref,
                            const MemPattern &pattern)
{
    trace::TraceScope scope("imagine.store_stream", "imagine", &group);
    triarch_assert(pattern.totalWords() == ref.words,
                   "stream/pattern length mismatch");
    triarch_assert(pattern.base
                       + (pattern.records - 1) * pattern.strideBytes
                       + pattern.recordWords * 4 <= dram.size(),
                   "stream store outside DRAM");

    // Functional copy SRF -> DRAM (one flat copy when the records
    // abut).
    const Word *src = srf.data() + ref.offsetWords;
    if (pattern.strideBytes
        == static_cast<Addr>(pattern.recordWords) * 4) {
        std::memcpy(dram.data() + pattern.base, src,
                    static_cast<std::size_t>(pattern.totalWords()) * 4);
    } else {
        for (unsigned r = 0; r < pattern.records; ++r) {
            std::memcpy(dram.data() + pattern.base
                        + r * pattern.strideBytes,
                        src + static_cast<std::size_t>(r)
                        * pattern.recordWords,
                        pattern.recordWords * 4);
        }
    }

    const Cycles issued = issueOp();
    const unsigned e = static_cast<unsigned>(
        std::min_element(engineFree.begin(), engineFree.end())
        - engineFree.begin());
    const Cycles start =
        std::max({issued, engineFree[e], streamReady(ref)});

    mem::AccessWindow window{start, start};
    for (unsigned r = 0; r < pattern.records; ++r) {
        window = channels[e]->access(
            pattern.base + r * pattern.strideBytes, pattern.recordWords,
            start);
    }
    const Cycles engineTime = start + pattern.totalWords();
    const Cycles finish = std::max(window.finish, engineTime);

    engineFree[e] = finish;
    inflight.push_back(finish);
    lastFinish = std::max(lastFinish, finish);
    timeline.add(stats::CycleCategory::DramDma, start, finish);
    hwSamp.addRange(1, start, finish);
    _memBusy += finish - start;
    _memWords += pattern.totalWords();
    ++_streamOps;
}

Cycles
ImagineMachine::kernelIi(const KernelDesc &desc) const
{
    const Cycles ii = std::max<Cycles>(
        {1,
         ceilDiv(desc.adds, cfg.addersPerCluster),
         ceilDiv(desc.mults, cfg.multsPerCluster),
         ceilDiv(desc.divs, cfg.dividersPerCluster),
         ceilDiv(desc.comm, cfg.commPerCluster),
         ceilDiv(desc.srfWords, cfg.srfWordsPerClusterCycle)});
    return ii;
}

void
ImagineMachine::runKernel(const KernelDesc &desc,
                          std::initializer_list<const StreamRef *> inputs,
                          std::initializer_list<const StreamRef *> outputs,
                          const std::function<void()> &fn)
{
    trace::TraceScope scope(desc.name.c_str(), "imagine", &group);

    // Functional execution against current SRF contents.
    fn();

    hostCycle += cfg.hostIssueCycles;
    _hostCycles += cfg.hostIssueCycles;
    timeline.add(stats::CycleCategory::SetupReadback,
                 hostCycle - cfg.hostIssueCycles, hostCycle);

    Cycles start = std::max(hostCycle, clusterFree);
    for (const StreamRef *in : inputs) {
        if (in->valid())
            start = std::max(start, streamReady(*in));
    }

    const Cycles ii = kernelIi(desc);
    const Cycles busy =
        (static_cast<Cycles>(desc.iterations) + desc.pipelineDepth) * ii;
    const Cycles finish = start + busy;

    clusterFree = finish;
    for (const StreamRef *out : outputs) {
        if (out->valid())
            setStreamReady(*out, finish);
    }
    lastFinish = std::max(lastFinish, finish);

    timeline.add(stats::CycleCategory::Compute, start, finish);
    hwSamp.addRange(0, start, finish);
    _clusterBusy += busy;
    _avgKernelIi.sample(static_cast<double>(ii));
    _usefulFlops += desc.usefulFlops;
    _commOps += static_cast<std::uint64_t>(desc.comm) * desc.iterations
                * cfg.clusters;
    ++_kernels;
}

Cycles
ImagineMachine::completionTime() const
{
    return std::max(lastFinish, hostCycle);
}

stats::CycleBreakdown
ImagineMachine::cycleBreakdown(Cycles total)
{
    const stats::CycleBreakdown b =
        timeline.resolve(total, stats::CycleCategory::NetworkSync);
    accountStats.record(b);
    return b;
}

std::vector<std::pair<std::string, stats::StatGroup *>>
ImagineMachine::componentGroups()
{
    std::vector<std::pair<std::string, stats::StatGroup *>> out;
    for (unsigned e = 0; e < channels.size(); ++e)
        out.emplace_back("dram" + std::to_string(e),
                         &channels[e]->statGroup());
    return out;
}

hw::HwCell
ImagineMachine::hwCell(Cycles total,
                       const stats::CycleBreakdown &breakdown)
{
    std::uint64_t rowHits = 0, rowMisses = 0, transfer = 0;
    for (const auto &ch : channels) {
        rowHits += ch->rowHits();
        rowMisses += ch->rowMisses();
        transfer += ch->transferCycles();
    }
    const std::uint64_t rowTotal = rowHits + rowMisses;
    const double rowHitRate =
        rowTotal ? static_cast<double>(rowHits) / rowTotal : 0.0;
    const double engineCap =
        static_cast<double>(total) * cfg.memEngines;
    const double busUtil =
        total ? std::min(1.0, static_cast<double>(transfer) / engineCap)
              : 0.0;
    const double streamOcc = memoryFraction();
    const double aluUtil = std::min(1.0, aluUtilization());
    const double clusterOcc =
        total ? std::min(1.0, static_cast<double>(_clusterBusy.value())
                                  / static_cast<double>(total))
              : 0.0;

    hw::HwCell cell;
    cell.cycles = total;
    cell.breakdown = breakdown;
    cell.metrics = {
        {"alu_utilization", aluUtil, true},
        {"cluster_occupancy", clusterOcc, true},
        {"dram_row_hit_rate", rowHitRate, true},
        {"bus_utilization", busUtil, true},
        {"stream_op_occupancy", streamOcc, true},
        {"mem_words_per_cycle",
         total ? static_cast<double>(_memWords.value())
                     / static_cast<double>(total)
               : 0.0,
         false},
    };

    cell.verdict.category = hw::dominantCategory(breakdown);
    switch (cell.verdict.category) {
      case stats::CycleCategory::Compute:
        cell.verdict.component = "cluster";
        cell.verdict.detail = "bound by the cluster array, alu util "
                              + hw::fmt2(aluUtil) + ", occupancy "
                              + hw::fmt2(clusterOcc);
        break;
      case stats::CycleCategory::CacheStall:
        // Structurally unreachable: stream mode has no cache.
        cell.verdict.component = "dcache";
        cell.verdict.detail = "unexpected cache stalls";
        break;
      case stats::CycleCategory::DramDma:
        // Within the memory category, blame the SDRAM banks when row
        // misses dominate the access mix, else the stream engines.
        if (rowMisses >= rowHits) {
            cell.verdict.component = "dram";
            cell.verdict.detail = "bound by SDRAM row misses, "
                                  "row-hit "
                                  + hw::fmt2(rowHitRate)
                                  + ", bus util " + hw::fmt2(busUtil);
        } else {
            cell.verdict.component = "stream";
            cell.verdict.detail = "bound by stream transfers, "
                                  "bus util "
                                  + hw::fmt2(busUtil) + ", row-hit "
                                  + hw::fmt2(rowHitRate);
        }
        break;
      case stats::CycleCategory::NetworkSync:
        cell.verdict.component = "network";
        cell.verdict.detail =
            "stream-readiness/descriptor waits dominate, "
            "desc stalls "
            + std::to_string(_descStalls.value());
        break;
      case stats::CycleCategory::SetupReadback:
        cell.verdict.component = "host";
        cell.verdict.detail = "host issue overhead dominates";
        break;
    }

    cell.timeline = hwSamp.finalize(completionTime());
    return cell;
}

void
ImagineMachine::resetTiming()
{
    hostCycle = 0;
    clusterFree = 0;
    std::fill(engineFree.begin(), engineFree.end(), Cycles{0});
    for (auto &ch : channels)
        ch->resetState();
    readyList.clear();
    inflight.clear();
    lastFinish = 0;
    timeline.clear();
    hwSamp.reset();
    group.resetAll();
    for (auto &ch : channels)
        ch->statGroup().resetAll();
}

double
ImagineMachine::aluUtilization() const
{
    const Cycles total = completionTime();
    if (total == 0)
        return 0.0;
    const double peakPerCycle =
        static_cast<double>(cfg.clusters)
        * (cfg.addersPerCluster + cfg.multsPerCluster
           + cfg.dividersPerCluster);
    return static_cast<double>(_usefulFlops.value())
           / (static_cast<double>(total) * peakPerCycle);
}

double
ImagineMachine::memoryFraction() const
{
    const Cycles total = completionTime();
    if (total == 0)
        return 0.0;
    return std::min(1.0, static_cast<double>(_memBusy.value())
                    / static_cast<double>(total * cfg.memEngines));
}

std::string
ImagineMachine::describe() const
{
    std::ostringstream os;
    os << "Imagine (stream processor, Stanford)\n"
       << "  " << cfg.clusters << " SIMD ALU clusters x ("
       << cfg.addersPerCluster << " adders + " << cfg.multsPerCluster
       << " multipliers + " << cfg.dividersPerCluster
       << " divider + comm unit)\n"
       << "  stream register file: " << cfg.srfBytes / 1024
       << " KB in " << cfg.srfBlockBytes << "-byte blocks\n"
       << "  " << cfg.memEngines
       << " memory stream engines, 1 word/cycle each, off-chip SDRAM\n"
       << "  clock " << cfg.clockMhz << " MHz, peak "
       << (cfg.clockMhz / 1000.0 * cfg.clusters
           * (cfg.addersPerCluster + cfg.multsPerCluster
              + cfg.dividersPerCluster))
       << " GFLOPS (32-bit)\n";
    return os.str();
}

} // namespace triarch::imagine
