#include "machine.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "sim/logging.hh"

namespace triarch::ppc
{

namespace
{

mem::CacheConfig
l1Config(const PpcConfig &cfg)
{
    return {"ppc.l1", cfg.l1Bytes, cfg.l1Assoc, cfg.lineBytes};
}

mem::CacheConfig
l2Config(const PpcConfig &cfg)
{
    return {"ppc.l2", cfg.l2Bytes, cfg.l2Assoc, cfg.lineBytes};
}

} // namespace

PpcMachine::PpcMachine(const PpcConfig &machine_config)
    : cfg(machine_config),
      l1(l1Config(cfg)), l2(l2Config(cfg)),
      fsb("ppc.fsb", cfg.fsbWordsNum, cfg.fsbCyclesDen), group("ppc")
{
    group.addScalar("int_ops", &_intOps, "integer operations");
    group.addScalar("fp_ops", &_fpOps, "scalar FP operations");
    group.addScalar("vec_ops", &_vecOps, "AltiVec operations");
    group.addScalar("loads", &_loads, "load accesses");
    group.addScalar("stores", &_stores, "store accesses");
    group.addScalar("mem_stall", &_memStall,
                    "cycles stalled on L2/DRAM");
    accountStats.registerIn(group);
}

void
PpcMachine::dramFill(bool l2_victim_dirty, bool charge_hit)
{
    if (l2_victim_dirty)
        fsb.transfer(cfg.lineBytes / 4, clock());

    // DRAM fill through the front-side bus.
    const Cycles fillDone = fsb.transfer(cfg.lineBytes / 4, clock());
    const double stallFrom = now;
    if (charge_hit) {
        // Loads block: pay the latency, or the bus backlog if the
        // workload is bandwidth bound.
        now = std::max(now + static_cast<double>(cfg.memLatency),
                       static_cast<double>(fillDone));
    } else {
        // Store misses drain through the store queue: latency is
        // hidden, but a deep bus backlog eventually throttles.
        now += 1.0;
        const double backlogLimit =
            static_cast<double>(fillDone)
            - static_cast<double>(cfg.storeQueueSlack);
        now = std::max(now, backlogLimit);
    }
    account.charge(stats::CycleCategory::DramDma, now - stallFrom);
    _memStall += toCycles(now - stallFrom);
    hwSamp.addRange(2, toCycles(stallFrom), clock());
}

Cycles
PpcMachine::cycles() const
{
    return static_cast<Cycles>(std::llround(now));
}

stats::CycleBreakdown
PpcMachine::cycleBreakdown(Cycles total)
{
    const stats::CycleBreakdown b =
        account.finalize(total, stats::CycleCategory::Compute);
    accountStats.record(b);
    return b;
}

hw::HwCell
PpcMachine::hwCell(Cycles total, const stats::CycleBreakdown &breakdown)
{
    auto rate = [](std::uint64_t part, std::uint64_t whole) {
        return whole ? static_cast<double>(part) / whole : 0.0;
    };
    const double l1Hit = rate(l1.hits(), l1.hits() + l1.misses());
    const double l2Hit = rate(l2.hits(), l2.hits() + l2.misses());
    const double busUtil =
        total ? std::min(1.0, static_cast<double>(fsb.busyCycles())
                                  / static_cast<double>(total))
              : 0.0;

    hw::HwCell cell;
    cell.cycles = total;
    cell.breakdown = breakdown;
    cell.metrics = {
        {"l1_hit_rate", l1Hit, true},
        {"l2_hit_rate", l2Hit, true},
        {"fsb_bus_utilization", busUtil, true},
        {"mem_stall_fraction",
         total ? std::min(1.0, rate(_memStall.value(), total)) : 0.0,
         true},
        {"fsb_words_per_cycle",
         total ? static_cast<double>(fsb.wordsMoved())
                     / static_cast<double>(total)
               : 0.0,
         false},
    };

    cell.verdict.category = hw::dominantCategory(breakdown);
    switch (cell.verdict.category) {
      case stats::CycleCategory::Compute:
        cell.verdict.component = "alu";
        cell.verdict.detail = "issue-limited, l1 hit "
                              + hw::fmt2(l1Hit) + ", mem stall frac "
                              + hw::fmt2(rate(_memStall.value(),
                                              total ? total : 1));
        break;
      case stats::CycleCategory::CacheStall:
        cell.verdict.component = "l2";
        cell.verdict.detail = "bound by L2-hit stalls, l1 hit "
                              + hw::fmt2(l1Hit) + ", l2 hit "
                              + hw::fmt2(l2Hit);
        break;
      case stats::CycleCategory::DramDma:
        cell.verdict.component = "dram";
        cell.verdict.detail = "bound by DRAM fills over the FSB, "
                              "bus util "
                              + hw::fmt2(busUtil) + ", l2 hit "
                              + hw::fmt2(l2Hit);
        break;
      case stats::CycleCategory::NetworkSync:
        cell.verdict.component = "network";
        cell.verdict.detail = "network/sync idle dominates";
        break;
      case stats::CycleCategory::SetupReadback:
        cell.verdict.component = "host";
        cell.verdict.detail = "setup/readback dominates";
        break;
    }

    cell.timeline = hwSamp.finalize(cycles());
    return cell;
}

void
PpcMachine::resetTiming()
{
    now = 0.0;
    account.reset();
    hwSamp.reset();
    l1.flush();
    l2.flush();
    fsb.resetState();
    group.resetAll();
    l1.statGroup().resetAll();
    l2.statGroup().resetAll();
    fsb.statGroup().resetAll();
}

std::string
PpcMachine::describe() const
{
    std::ostringstream os;
    os << "PowerPC G4 with AltiVec (Apple PowerMac G4, "
       << cfg.clockMhz << " MHz)\n"
       << "  superscalar core, 1 FPU (dependent latency "
       << cfg.fpChainLatency << "), AltiVec 4 x 32-bit vector unit\n"
       << "  L1 " << cfg.l1Bytes / 1024 << " KB / L2 "
       << cfg.l2Bytes / 1024 << " KB, " << cfg.lineBytes
       << "-byte lines\n"
       << "  front-side bus ~" << (cfg.fsbWordsNum * 4 * cfg.clockMhz
                                   / cfg.fsbCyclesDen / 1000)
       << " MB/s peak; DRAM latency " << cfg.memLatency << " cycles\n"
       << "  peak 5 GFLOPS (4-wide AltiVec + FPU)\n";
    return os.str();
}

} // namespace triarch::ppc
