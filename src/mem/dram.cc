#include "dram.hh"

#include <algorithm>

#include "sim/bitutil.hh"
#include "sim/logging.hh"

namespace triarch::mem
{

DramModel::DramModel(const DramConfig &dram_config)
    : cfg(dram_config), bankState(cfg.banks), group(cfg.name)
{
    triarch_assert(cfg.banks > 0, "DRAM needs at least one bank");
    triarch_assert(cfg.rowBytes >= 4, "row must hold at least one word");
    triarch_assert(cfg.timing.busWordsPerCycle > 0,
                   "bus width must be positive");
    group.addScalar("row_hits", &_rowHits, "accesses hitting open row");
    group.addScalar("row_misses", &_rowMisses,
                    "accesses paying precharge+activate");
    group.addScalar("transfer_cycles", &_transferCycles,
                    "data bus busy cycles");
    group.addScalar("overhead_cycles", &_overheadCycles,
                    "precharge/activate cycles on the critical path");
    group.addScalar("accesses", &_accesses, "row segments accessed");
}

unsigned
DramModel::bankOf(Addr addr) const
{
    return (addr / cfg.bankInterleaveBytes) % cfg.banks;
}

Addr
DramModel::rowOf(Addr addr) const
{
    // Rows are counted per bank: strip the bank-interleave rotation.
    Addr chunk = addr / cfg.bankInterleaveBytes;
    Addr chunkPerBank = chunk / cfg.banks;
    Addr within = addr % cfg.bankInterleaveBytes;
    return (chunkPerBank * cfg.bankInterleaveBytes + within)
           / cfg.rowBytes;
}

AccessWindow
DramModel::access(Addr addr, unsigned nwords, Cycles earliest)
{
    triarch_assert(nwords > 0, "zero-length DRAM access");

    AccessWindow window{0, 0};
    bool first = true;
    Addr cur = addr;
    unsigned remaining = nwords;

    while (remaining > 0) {
        const Addr rowEnd = roundUp(cur + 1, cfg.rowBytes);
        const unsigned wordsThisRow = static_cast<unsigned>(
            std::min<Addr>(remaining, (rowEnd - cur + 3) / 4));

        Bank &bank = bankState[bankOf(cur)];
        const Addr row = rowOf(cur);

        ++_accesses;
        Cycles rowCost = 0;
        if (bank.openRow != row) {
            rowCost = cfg.timing.tRp + cfg.timing.tRcd;
            ++_rowMisses;
            bank.openRow = row;
        } else {
            ++_rowHits;
        }

        // The bank must be free and the request issued; row open
        // overlaps with whatever the data bus is still sending for
        // other banks (that is the benefit of bank interleaving).
        const Cycles bankStart = std::max(earliest, bank.nextFree);
        const Cycles dataReady = bankStart + rowCost + cfg.timing.tCas;
        const Cycles busStart = std::max(dataReady, busNextFree);
        const Cycles transfer =
            ceilDiv(wordsThisRow, cfg.timing.busWordsPerCycle);
        const Cycles finish = busStart + transfer;

        _transferCycles += transfer;
        // Only the part of the row cost not hidden behind the bus
        // shows up on the critical path.
        if (dataReady > busNextFree && busNextFree > 0) {
            _overheadCycles += dataReady - std::max(busNextFree,
                                                    bankStart);
        } else if (busNextFree == 0) {
            _overheadCycles += rowCost + cfg.timing.tCas;
        }

        busNextFree = finish;
        bank.nextFree = busStart;   // bank can open next row during xfer

        if (first) {
            window.start = busStart;
            first = false;
        }
        window.finish = finish;

        cur += static_cast<Addr>(wordsThisRow) * 4;
        remaining -= wordsThisRow;
        earliest = bankStart;
    }

    return window;
}

void
DramModel::resetState()
{
    for (auto &bank : bankState) {
        bank.openRow = ~Addr{0};
        bank.nextFree = 0;
    }
    busNextFree = 0;
}

} // namespace triarch::mem
