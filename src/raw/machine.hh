/**
 * @file
 * The Raw machine model: a cycle-stepped interpreter over 16 tile
 * cores, the static mesh network, peripheral DRAM ports with DMA
 * stream sessions, and per-tile data caches for the MIMD mode.
 *
 * Execution model per cycle: every tile retires at most one
 * instruction; a tile stalls when a source register is not ready
 * (scoreboarded latencies), when it reads $csti and the input FIFO
 * is empty, or while a cache miss is serviced. DMA-in ports stream
 * global memory into tile FIFOs at one word per cycle (plus row-miss
 * penalties); DMA-out ports drain words the tiles route to them and
 * write global memory sequentially.
 *
 * One run loop executes that model (DESIGN D12): the event-driven
 * stepper keeps a next-wake cycle per tile, jumps `now` to the
 * minimum pending wake of the live tiles and busy ports, and credits
 * the skipped cycles to the sleeping tiles' stall tallies in bulk.
 * Its witness lives in the tests: ReferenceRawMachine
 * (tests/raw_reference.hh) overrides loop() to spin one cycle at a
 * time calling every tile, and must produce bit-identical cycle
 * counts and statistics.
 */

#ifndef TRIARCH_RAW_MACHINE_HH
#define TRIARCH_RAW_MACHINE_HH

#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "mem/cache.hh"
#include "raw/config.hh"
#include "raw/isa.hh"
#include "sim/cycle_account.hh"
#include "sim/hw_report.hh"
#include "sim/ring_queue.hh"
#include "sim/stats.hh"
#include "sim/types.hh"
#include "sim/zero_buffer.hh"

namespace triarch::raw
{

/** Route endpoint: tiles are 0..15, port p is portEndpoint(p). */
constexpr unsigned
portEndpoint(unsigned port)
{
    return 1000 + port;
}

/** The 16-tile Raw chip plus its memory ports. */
class RawMachine
{
  public:
    explicit RawMachine(const RawConfig &machine_config = {});
    virtual ~RawMachine() = default;
    RawMachine(const RawMachine &) = delete;
    RawMachine &operator=(const RawMachine &) = delete;

    const RawConfig &config() const { return cfg; }

    // ------------------------------------------------------------
    // Host-side setup (not timed).
    // ------------------------------------------------------------

    /** Bump-allocate global DRAM; returns a globalBase-relative
     *  absolute address usable in tile programs. */
    Addr allocGlobal(std::uint64_t bytes, const std::string &what);

    void pokeGlobal(Addr addr, std::span<const Word> words);
    std::vector<Word> peekGlobal(Addr addr, std::size_t count) const;
    /** Copy-free variant: read global DRAM straight into @p out. */
    void peekGlobalInto(Addr addr, std::span<Word> out) const;

    /** Load a program into a tile (pc resets to 0). */
    void setProgram(unsigned tile, std::vector<Instr> program);

    /** Host write into a tile's local SRAM. */
    void pokeLocal(unsigned tile, Addr byte_offset,
                   std::span<const Word> words);
    std::vector<Word> peekLocal(unsigned tile, Addr byte_offset,
                                std::size_t count) const;

    /** Configure a tile's static route for $csto writes. */
    void setRoute(unsigned tile, unsigned endpoint);

    /**
     * Queue a DMA-in segment: port @p port streams @p words global
     * words from @p base into tile @p dstTile's input FIFO.
     */
    void dmaIn(unsigned port, unsigned dstTile, Addr base,
               unsigned words);

    /**
     * Queue a DMA-out segment: the next @p words words arriving at
     * port @p port are written sequentially to global @p base.
     */
    void dmaOut(unsigned port, Addr base, unsigned words);

    // ------------------------------------------------------------
    // Execution.
    // ------------------------------------------------------------

    /**
     * Run until every tile halts and all DMA queues drain; returns
     * the cycle count. Fatal if cfg.maxCycles is exceeded (deadlock
     * or runaway program).
     */
    Cycles run();

    // ------------------------------------------------------------
    // Statistics.
    // ------------------------------------------------------------

    stats::StatGroup &statGroup() { return group; }

    std::uint64_t instructions() const { return _instrs.value(); }
    std::uint64_t netStalls() const { return _netStalls.value(); }
    std::uint64_t depStalls() const { return _depStalls.value(); }
    std::uint64_t cacheStallCycles() const
    {
        return _cacheStalls.value();
    }
    std::uint64_t loadStores() const { return _ldst.value(); }
    std::uint64_t fpOps() const { return _fpops.value(); }

    /** Instructions retired by one tile (load-balance studies). */
    std::uint64_t tileInstructions(unsigned tile) const;

    /** Cycles tile spent fully idle after halting. A tile that was
     *  never given a (non-empty) program never ran and never halted,
     *  so it reports 0 rather than the whole run. */
    std::uint64_t tileIdleAfterHalt(unsigned tile) const;

    /**
     * The raw per-tile-cycle tallies behind cycleBreakdown(): each
     * tile accrues exactly one tally per run() cycle, so the fields
     * sum to tiles() x cycles. Exposed so tests can pin accounting
     * invariants (net == net_stalls - dma, partition sum, ...).
     */
    struct StallTallies
    {
        std::uint64_t busy;     //!< retired an instruction
        std::uint64_t dep;      //!< operand-latency stall
        std::uint64_t cache;    //!< cache-miss stall
        std::uint64_t net;      //!< network wait / send occupancy
        std::uint64_t dma;      //!< DMA-fed FIFO wait
        std::uint64_t idle;     //!< halted (imbalance idle)
    };
    StallTallies stallTallies() const
    {
        return {tcBusy, tcDep, tcCache, tcNet, tcDma, tcIdle};
    }

    /**
     * Finalize the cycle account against @p total. Every tile is in
     * exactly one state each cycle of run() — retiring (compute),
     * stalled on an operand (compute: pipeline latency), stalled on
     * a cache miss (cache_stall), waiting on a DMA-fed FIFO
     * (dram_dma), waiting on the network or another tile
     * (network_sync), or halted (network_sync: imbalance idle) —
     * and the wall clock is attributed by averaging the tile-cycle
     * tallies over the mesh. When @p total differs from the
     * measured wall clock (the Raw CSLC perfect-load-balance
     * extrapolation of Section 4.3), the measured proportions are
     * rescaled to @p total. Also records the breakdown into the
     * stat group's account_* scalars.
     */
    stats::CycleBreakdown cycleBreakdown(Cycles total);

    /** The component StatGroups (one per tile data cache) behind the
     *  main group, as (label-suffix, group) pairs for per-cell
     *  capture. */
    std::vector<std::pair<std::string, stats::StatGroup *>>
    componentGroups();

    /**
     * Roll the mesh counters into the cell's hardware report:
     * aggregate dcache hit rate, FIFO occupancy, tile busy/idle
     * fractions, the per-stall-kind epoch timeline (with the busy
     * channel derived as the tile-cycle residual), and a bottleneck
     * verdict consistent with @p breakdown (hw_report.hh, D14).
     * @p total may be the CSLC balanced extrapolation; the timeline
     * always closes over the measured wall clock.
     */
    hw::HwCell hwCell(Cycles total,
                      const stats::CycleBreakdown &breakdown);

    /** One-paragraph block-diagram description (Figure 3). */
    std::string describe() const;

  protected:
    /** The run loop behind run(): steps the model from cycle 0 until
     *  every tile halts and every port drains; returns the cycle
     *  count. The machine's loop is the event stepper; the test
     *  witness overrides it with the cycle-at-a-time reference. */
    virtual Cycles loop() { return runEvent(); }

    /** One cycle of the whole chip at @p now: every busy port, then
     *  every tile in order. */
    void stepAll(Cycles now);

    /** Every tile has halted and every port's queues are empty, by a
     *  full scan (the event loop tracks masks and counts instead). */
    bool allDone() const;

    /** Runs may execute tile-local instruction runs in one stepTile
     *  call. run() sets it (off while debug tracing); a loop that
     *  steps one cycle at a time clears it. */
    bool batching = false;

  private:
    struct DmaSegment
    {
        Addr base;
        unsigned words;
        unsigned dstTile;   //!< DMA-in only
        unsigned done = 0;
    };

    /** Why a tile is not retiring this cycle (for the account). */
    enum class TileStall : std::uint8_t { None, Dep, Cache, Net, Dma };

    /** A tile's next-wake cycle of "never" (halted / unknown). */
    static constexpr Cycles kNever = ~Cycles{0};

    /**
     * One predecoded instruction, 8 bytes like the Instr it replaces
     * in place. setProgram() resolves once what the interpreter would
     * otherwise re-derive every step. The low byte of `bits` is the
     * handler id: the opcode plus the operand-kind bits (pop $csti for
     * rs / rt, send the result on $csto). Above it sit the register
     * fields, the batch bit and the result latency. An operand the
     * opcode does not read decodes to r0, and a result with no
     * register home decodes to regSink, so operand reads and the
     * scoreboard check are plain array loads: nothing ever writes
     * regs[0] or ready[0].
     */
    struct Uop
    {
        std::uint32_t bits;
        std::int32_t imm;

        Op op() const { return static_cast<Op>(bits & 31); }
        bool popRs() const { return bits >> 5 & 1; }
        bool popRt() const { return bits >> 6 & 1; }
        /** The result is written to $csto. */
        bool send() const { return bits >> 7 & 1; }
        unsigned rd() const { return bits >> 8 & 31; }
        unsigned rs() const { return bits >> 13 & 31; }
        unsigned rt() const { return bits >> 18 & 31; }
        /** No $csti pop, no dynamic-network op, no halt: a batch
         *  may run it (a $csto send only to a single-sender port). */
        bool batch() const { return bits >> 23 & 1; }
        Cycles lat() const { return bits >> 24; }
    };
    static_assert(sizeof(Uop) == sizeof(Instr));

    /** Where results with no register home land: $csti's slot,
     *  never read, because a $csti operand decodes to a pop. */
    static constexpr unsigned regSink = regCsti;

    /** Uop::bits for @p in (the immediate carries over as is). */
    std::uint32_t decode(const Instr &in) const;
    /** Debug-log @p u, executed by tile @p t at @p now, as the
     *  instruction it was decoded from. Out of line: tracing is
     *  rare and the stepper is hot. */
    [[gnu::noinline]] static void logOp(unsigned t, Cycles now, Uop u);

    struct Port;

    /**
     * Per-tile state the interpreter touches every step, laid out
     * contiguously (one vector element per tile). Cold bulk — the
     * program and SRAM backing stores, the cache object, halt
     * bookkeeping — lives in TileCold; the hot struct carries raw
     * pointers into it.
     */
    struct TileHot
    {
        unsigned pc = 0;
        std::uint32_t progLen = 0;
        /** The decoded program: each Instr-sized slot holds a Uop. */
        const Instr *prog = nullptr;
        Uop op(unsigned at) const { return std::bit_cast<Uop>(prog[at]); }
        Cycles stallUntil = 0;
        TileStall stallKind = TileStall::None;
        bool halted = false;
        bool dmaFed = false;    //!< a DMA-in segment targets this tile
        /** Event stepper: csti words awaited while the FIFO is too
         *  short to know a wake cycle (0 = not waiting on a push). */
        std::uint8_t waitPops = 0;
        /** Event stepper: blocked on an empty dynamic-network FIFO. */
        bool waitDyn = false;
        unsigned route = ~0u;
        /** The port this tile alone routes $csto to, set by run();
         *  null when the route is a tile or a shared port. */
        Port *soloPort = nullptr;
        /** Event stepper: stall tallies cover cycles
         *  [0, talliedThrough); the gap up to `now` is credited in
         *  bulk before the tile steps again. */
        Cycles talliedThrough = 0;
        std::uint8_t *sram = nullptr;
        mem::SetAssocCache *cache = nullptr;
        std::uint64_t instrs = 0;
        std::array<std::uint32_t, numRegs> regs{};
        std::array<Cycles, numRegs> ready{};
        RingQueue<std::pair<Cycles, Word>> inFifo;  //!< arrival,value
        RingQueue<std::pair<Cycles, Word>> dynFifo; //!< dynamic net
    };

    struct TileCold
    {
        /** Owns the op stream behind TileHot::prog. */
        std::vector<Instr> program;
        std::vector<std::uint8_t> sram;
        std::unique_ptr<mem::SetAssocCache> cache;
        Cycles haltCycle = 0;
    };

    struct Port
    {
        RingQueue<DmaSegment> inQueue;
        RingQueue<DmaSegment> outQueue;
        RingQueue<std::pair<Cycles, Word>> arrivals; //!< from tiles
        Cycles inFree = 0;
        Cycles outFree = 0;
        Addr inLastRow = ~Addr{0};
        Addr outLastRow = ~Addr{0};
    };

    /** Step one tile by one cycle; records one tally and refreshes
     *  the tile's next-wake cycle (ignored by the test witness). */
    void stepTile(unsigned t, Cycles now);
    void batchTile(unsigned t, Cycles cur);

    /** fp_ops and loads_stores of the ops one stepTile or batch
     *  executed: kept in registers, added to the stats on exit. */
    struct OpCounts
    {
        std::uint64_t fp = 0;
        std::uint64_t ldst = 0;
    };

    /**
     * Execute @p u, the op at @p pc of tile @p t, at cycle @p now:
     * the one place that holds the opcode semantics. The caller has
     * checked that the op's operands and network resources are ready,
     * and it advances the tile's pc and retire count. Returns the
     * next pc. A Batch call declines (returns kDeclined, no side
     * effect) a load or store that reaches global DRAM.
     */
    template <bool Batch>
    [[gnu::always_inline]] unsigned execute(unsigned t, TileHot &tile,
                                            Uop u, unsigned pc,
                                            Cycles now,
                                            OpCounts &counts);
    static constexpr unsigned kDeclined = ~0u;

    /** A batch may reach @p u: it has the batch bit and sends only
     *  to a port the tile alone feeds. */
    bool canBatch(const TileHot &tile, Uop u) const;

    /** @p u loads or stores global DRAM, which a batch never runs.
     *  stepTile tests it to skip a batch that would stop at once; a
     *  running batch absorbs the op's operand wait first, and then
     *  execute() declines it. */
    bool reachesGlobal(const TileHot &tile, Uop u) const;

    /** Account one cycle of @p kind for a tile at cycle @p now. */
    void tallyStall(TileStall kind, Cycles now);

    /** Advance DMA engines for one cycle. */
    [[gnu::always_inline]] void stepPorts(Cycles now);

    /** Advance one DMA engine for one cycle. */
    [[gnu::always_inline]] void stepPort(Port &port, Cycles now);

    /** Deliver a $csto write from tile @p t. */
    [[gnu::always_inline]] void send(unsigned t, Word value, Cycles now);

    /** XY-hop count between two tiles. */
    unsigned hops(unsigned a, unsigned b) const;

    /** Event stepper: credit a sleeping tile's tallies for cycles
     *  [talliedThrough, now) in one addition. */
    void creditSleep(unsigned t, Cycles now);

    /** Event stepper: earliest cycle >= @p from where any tile wakes
     *  or any DMA port can act; kNever when nothing is pending. */
    [[gnu::always_inline]] Cycles nextEventCycle(Cycles from) const;

    /** Event stepper: a word was pushed into tile @p t's input FIFO
     *  — wake the tile if it was waiting for the push. */
    [[gnu::always_inline]] void noteFifoPush(unsigned t);

    /** The event-driven loop: jump to the minimum pending wake. */
    Cycles runEvent();

    RawConfig cfg;
    std::vector<TileHot> hot;
    std::vector<TileCold> cold;
    /** Per-tile next-wake cycles, contiguous for the min-scan. */
    std::vector<Cycles> wake;
    std::vector<Port> ports;
    /** Global DRAM: lazily-faulted zero pages, so constructing the
     *  64 MB model costs microseconds, not a 64 MB memset. */
    ZeroBuffer global;
    Addr allocNext = 64;
    /** DRAM row of @p a (portRowBytes is a power of two). */
    Addr rowOf(Addr a) const { return a >> portRowShift; }
    unsigned portRowShift = 0;
    /** logLevel() is an out-of-line call; sampled once per run() so
     *  the per-instruction debug check is a flag test. */
    bool debugTrace = false;
    /** Result latency by class (int, mul, fp, load), for decode(). */
    std::array<std::uint8_t, 4> latency;
    /** Run-ahead bound of batched port sends: a batch stops sending
     *  while this many words (one DRAM row) wait at the port. */
    std::size_t sendAhead = 0;
    /** Bit t set while tile t has a program and has not halted
     *  (the constructor caps tiles() at 64). The event loop steps
     *  and wake-scans only these tiles; with portWork it is the
     *  O(1) allDone test. */
    std::uint64_t liveTileMask = 0;
    /** Bit p set while port p has a queued DMA-in or DMA-out
     *  segment; stepPorts and the wake scan visit only these. */
    std::uint64_t busyPortMask = 0;
    /** Undrained port work items (queued DMA segments and in-flight
     *  port arrivals). */
    std::uint64_t portWork = 0;

    /** Epoch channels mirroring the stall tallies (busy is derived
     *  at finalize time as the tile-cycle residual). The event loop
     *  credits the per-cycle tallies in bulk ranges, the test witness
     *  cycle by cycle, and the sampler is order-independent, so the
     *  timelines are bit-identical. */
    hw::EpochSampler hwSamp{{"dep", "cache", "net", "dma", "idle"}};
    /** Sum over popped static-network words of (pop cycle - arrival
     *  cycle): the FIFO-residency integral behind the mesh FIFO
     *  occupancy metric. run() adds the residual of unconsumed
     *  words against the final wall clock. */
    std::uint64_t fifoWordCycles = 0;

    // Tile-cycle tallies: each tile contributes exactly one tally
    // per run() cycle, so their sum is tiles() x wall cycles.
    std::uint64_t tcBusy = 0;   //!< retired an instruction
    std::uint64_t tcDep = 0;    //!< operand-latency stall
    std::uint64_t tcCache = 0;  //!< cache-miss stall
    std::uint64_t tcNet = 0;    //!< network wait / send occupancy
    std::uint64_t tcDma = 0;    //!< DMA-fed FIFO wait
    std::uint64_t tcIdle = 0;   //!< halted (imbalance idle)

    stats::StatGroup group;
    stats::Scalar _instrs;
    stats::Scalar _netStalls;
    stats::Scalar _depStalls;
    stats::Scalar _cacheStalls;
    stats::Scalar _ldst;
    stats::Scalar _fpops;
    stats::Scalar _wordsDmaIn;
    stats::Scalar _wordsDmaOut;
    stats::Scalar _cycles;
    /** Per-tile instruction share of the busiest tile, sampled once
     *  per tile per run(); hi is 1.1 so a share of exactly 1.0 lands
     *  in the top bucket instead of the overflow counter. */
    stats::Distribution _tileShare{0.0, 1.1, 11};
    stats::BreakdownStats accountStats;
};

} // namespace triarch::raw

#endif // TRIARCH_RAW_MACHINE_HH
