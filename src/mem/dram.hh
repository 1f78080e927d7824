/**
 * @file
 * A bank/row-granularity DRAM timing model: the off-chip SDRAM
 * channels behind Imagine's two stream engines, 2 words/cycle in
 * aggregate.
 *
 * The model captures what the paper's Imagine results hinge on:
 * sequential (open-row) accesses stream at the data-bus width, while
 * strided or random accesses pay precharge + activate + CAS per row
 * switch and serialize on banks. The other machines model their
 * memories inside their own machine models (VIRAM's on-chip banks,
 * Raw's peripheral ports, the G4's front-side bus).
 */

#ifndef TRIARCH_MEM_DRAM_HH
#define TRIARCH_MEM_DRAM_HH

#include <string>
#include <vector>

#include "sim/stats.hh"
#include "sim/types.hh"

namespace triarch::mem
{

/** Core DRAM timing parameters, in cycles of the owning machine. */
struct DramTiming
{
    Cycles tCas = 2;    //!< column access latency after row open
    Cycles tRcd = 3;    //!< row activate
    Cycles tRp = 3;     //!< precharge
    /** Data bus width in 32-bit words transferred per cycle. */
    unsigned busWordsPerCycle = 1;
};

/** Geometry and timing of one DRAM channel. */
struct DramConfig
{
    std::string name = "dram";
    unsigned banks = 4;
    Addr rowBytes = 2048;           //!< bytes per row (page) per bank
    DramTiming timing;
    /**
     * Consecutive address chunks of this size map to consecutive
     * banks, so a sequential stream rotates across banks and row
     * activations overlap with transfers.
     */
    Addr bankInterleaveBytes = 2048;
};

/** Result of a timed access: first and one-past-last busy cycle. */
struct AccessWindow
{
    Cycles start;
    Cycles finish;
};

/**
 * One DRAM channel with open-row (page-mode) bank state and a shared
 * data bus. Purely a timing model; data contents live elsewhere.
 */
class DramModel
{
  public:
    explicit DramModel(const DramConfig &dram_config);

    /**
     * Time a contiguous burst of @p nwords 32-bit words at @p addr.
     *
     * The burst is split at row boundaries; each row segment pays
     * CAS (plus precharge + activate when it misses the open row)
     * and then streams on the data bus. Row activation of the next
     * bank overlaps with the current transfer when the stream walks
     * the bank interleave, which is what makes sequential streams
     * fast.
     *
     * @param addr       starting byte address
     * @param nwords     number of 32-bit words
     * @param earliest   first cycle the request may start
     * @return busy window on the data bus
     */
    AccessWindow access(Addr addr, unsigned nwords, Cycles earliest);

    /** First cycle at which the data bus is free. */
    Cycles busFreeAt() const { return busNextFree; }

    /** Forget open rows and bank timing (not the stats). */
    void resetState();

    /** Row-hit / row-miss / transfer-cycle counters. */
    stats::StatGroup &statGroup() { return group; }

    std::uint64_t rowHits() const { return _rowHits.value(); }
    std::uint64_t rowMisses() const { return _rowMisses.value(); }
    /** Cycles the data bus spent moving words. */
    std::uint64_t transferCycles() const { return _transferCycles.value(); }
    /** Cycles added by precharge/activate on row misses. */
    std::uint64_t overheadCycles() const { return _overheadCycles.value(); }

    const DramConfig &config() const { return cfg; }

  private:
    struct Bank
    {
        Addr openRow = ~Addr{0};
        Cycles nextFree = 0;
    };

    unsigned bankOf(Addr addr) const;
    Addr rowOf(Addr addr) const;

    DramConfig cfg;
    std::vector<Bank> bankState;
    Cycles busNextFree = 0;

    stats::StatGroup group;
    stats::Scalar _rowHits;
    stats::Scalar _rowMisses;
    stats::Scalar _transferCycles;
    stats::Scalar _overheadCycles;
    stats::Scalar _accesses;
};

} // namespace triarch::mem

#endif // TRIARCH_MEM_DRAM_HH
