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
 * DMA streams leave that loop where they can: a tile fed by one port
 * alone pulls its words by the port's push recurrence, and DMA-out
 * ports drain lazily, settled only when something could observe it.
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
     * words from @p base into tile @p dstTile's input FIFO. During
     * the run those words belong to the stream: a tile sw to any of
     * them is a program fault (DESIGN D12).
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

    /** A port's DMA-in segments in queue order. A run consumes them
     *  front to back but keeps them until it ends, so the ownership
     *  rule can still find the words a finished segment read. */
    struct InQueue
    {
        std::vector<DmaSegment> segs;
        std::size_t head = 0;

        bool empty() const { return head == segs.size(); }
        DmaSegment &front() { return segs[head]; }
        const DmaSegment &front() const { return segs[head]; }
        void pop_front() { ++head; }
    };

    /** Why a tile is not retiring this cycle (for the account). */
    enum class TileStall : std::uint8_t { None, Dep, Cache, Net, Dma };

    /** A tile's next-wake cycle of "never" (halted / unknown). */
    static constexpr Cycles kNever = ~Cycles{0};

    /**
     * One predecoded instruction, 8 bytes like the Instr it replaces
     * in place. setProgram() resolves once what the interpreter would
     * otherwise re-derive every step. `code` is the handler id: the
     * opcode plus the operand-kind bits (pop $csti for rs / rt, send
     * the result on $csto). The register fields take a byte each, so
     * the interpreter loads them without shifting. An operand the
     * opcode does not read decodes to r0, and a result with no
     * register home decodes to regSink, so operand reads and the
     * scoreboard check are plain array loads: nothing ever writes
     * regs[0] or ready[0]. The result latency is opLatency[op()].
     */
    struct Uop
    {
        std::uint8_t code;
        std::uint8_t rdReg;
        std::uint8_t rsReg;
        std::uint8_t rtReg;
        std::int32_t imm;

        Op op() const { return static_cast<Op>(code & kOpBits); }
        bool popRs() const { return code >> 5 & 1; }
        bool popRt() const { return code >> 6 & 1; }
        /** The result is written to $csto. */
        bool send() const { return code >> 7; }
        unsigned rd() const { return rdReg; }
        unsigned rs() const { return rsReg; }
        unsigned rt() const { return rtReg; }
        /** $csti words the op pops (0, 1 or 2). */
        unsigned pops() const { return popRs() + popRt(); }
    };
    static_assert(sizeof(Uop) == sizeof(Instr));
    /** The Uop a decoded program slot holds, field by field (the op
     *  field holds the code), so the interpreter loads each byte. */
    static Uop
    uop(const Instr &slot)
    {
        return {static_cast<std::uint8_t>(slot.op), slot.rd, slot.rs,
                slot.rt, slot.imm};
    }

    /** Uop::code's opcode and pop bits. A batch may run an op whose
     *  code masked by the tile's TileHot::batchMask is below
     *  kStepOnly (the opcodes from halt on issue only through
     *  stepTile), so a tile that is not a lane never batches a pop. */
    static constexpr std::uint32_t kOpBits = 31;
    static constexpr std::uint32_t kPopBits = 3u << 5;
    static constexpr std::uint32_t kStepOnly =
        static_cast<std::uint32_t>(Op::Halt);

    /** Where results with no register home land: $csti's slot,
     *  never read, because a $csti operand decodes to a pop. */
    static constexpr unsigned regSink = regCsti;

    /** The Uop for @p in (the immediate carries over as is). */
    Uop decode(const Instr &in) const;
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
        Uop op(unsigned at) const { return uop(prog[at]); }
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
        /** canBatch's mask: kOpBits | kPopBits, or kOpBits alone on
         *  a lane (a tile that pulls its own DMA-in stream, see Lane),
         *  whose batches pop $csti too. It fills padding, so the
         *  fields the interpreter reads keep their places. */
        std::uint32_t batchMask = kOpBits | kPopBits;
        bool lane() const { return batchMask == kOpBits; }
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

    /**
     * A lane's stream state (set by runEvent, kept out of TileHot so
     * the interpreter's hot fields stay put): the one port that feeds
     * the tile, the words popped this run and still to pull, and the
     * ring (bit_ceil(fifoCapacity) slots, by word index) of pop
     * cycle + 1, the cycle from which the popped word's FIFO slot is
     * free again.
     */
    struct Lane
    {
        Port *port = nullptr;
        std::uint64_t popped = 0;
        std::uint64_t left = 0;
        std::vector<Cycles> free;
    };

    /** A register and a cycle offset from a block's entry, packed as
     *  offset << 5 | register. */
    using RegAt = std::uint32_t;

    /** A dep-stall window of a block: its first cycle, as an offset
     *  from the block's entry, and its length. */
    struct Window
    {
        std::uint32_t at;
        std::uint32_t len;
    };

    /**
     * The exact in-order schedule of one basic block of ops a batch
     * that pops nothing may run (DESIGN D12 (5)), computed as if every
     * live-in register were ready at entry. Its lists are slices of
     * its BlockTable's pools: the live-ins with the offset of their
     * first use, the registers written and live after it with their
     * exit ready offset, the dep-stall windows and each send's issue
     * offset.
     */
    struct Block
    {
        std::uint32_t ops = 0;      //!< op count; only the last branches
        std::uint32_t cycles = 0;   //!< entry to the cycle after the last issue
        std::uint32_t depCycles = 0;    //!< the windows' total length
        std::uint32_t fp = 0, ldst = 0, sends = 0;  //!< op counts
        std::uint32_t ins = 0, in = 0;      //!< live-ins: count, first RegAt
        std::uint32_t outs = 0, out = 0;    //!< live-outs
        std::uint32_t wins = 0, win = 0;    //!< windows
        std::uint32_t winFirst = 0, winEnd = 0;  //!< the windows' span
        std::uint32_t send = 0;             //!< first send's issue offset
        /** It branches to itself, sends nothing and stays exact on
         *  the next entry. */
        bool loops = false;
    };

    /** A program's block schedules (setProgram). entry[pc] is 1 + the
     *  index of the block that starts at pc, or 0 (also past the
     *  65535th block). */
    struct BlockTable
    {
        std::vector<std::uint16_t> entry;
        std::vector<Block> blocks;
        std::vector<RegAt> regs;
        std::vector<Window> windows;
        std::vector<std::uint32_t> sendAt;
    };

    /** Longest block: bounds every offset well below 2^27 (RegAt). */
    static constexpr std::uint32_t kMaxBlockOps = 1024;

    struct TileCold
    {
        /** Owns the op stream behind TileHot::prog. */
        std::vector<Instr> program;
        /** The program's block schedules, for batchTile<false>;
         *  shared by the tiles whose programs schedule alike. */
        std::shared_ptr<const BlockTable> blocks;
        std::vector<std::uint8_t> sram;
        std::unique_ptr<mem::SetAssocCache> cache;
        Cycles haltCycle = 0;
    };

    /** Cut decoded program @p prog into blocks and schedule each. */
    std::shared_ptr<const BlockTable>
    buildBlocks(const std::vector<Instr> &prog) const;

    struct Port
    {
        InQueue inQueue;
        RingQueue<DmaSegment> outQueue;
        RingQueue<std::pair<Cycles, Word>> arrivals; //!< from tiles
        Cycles inFree = 0;
        Cycles outFree = 0;
        Addr inLastRow = ~Addr{0};
        Addr outLastRow = ~Addr{0};
        /** The arrival-queue size a batch sending here stops at. */
        std::size_t sendLimit = 0;
    };

    /** Fatal unless the segment's words [base, base + 4 words) lie
     *  inside global DRAM. */
    void checkSegment(Addr base, unsigned words) const;

    /** Step one tile by one cycle; records one tally and refreshes
     *  the tile's next-wake cycle (ignored by the test witness). */
    void stepTile(unsigned t, Cycles now);
    /** Run tile @p t's batchable ops from cycle @p cur, ahead of the
     *  event loop; an OnLane batch pops $csti too, and any other runs
     *  each block it enters at its start whole, by its schedule,
     *  when the schedule is exact. Cache-line aligned: where the
     *  linker put the loop moved CSLC's host time by ~15% between
     *  otherwise identical builds. */
    template <bool OnLane>
    [[gnu::aligned(64)]] void batchTile(unsigned t, Cycles cur);

    /**
     * A lane's DMA-in engine in locals: the next word's byte offset
     * and the words left in its segment and in the whole stream, the
     * port's inFree and row, and the stream's word index, plus the
     * constants pull() reads. A batch keeps it in a local that never
     * escapes, so SRAM stores (byte pointers, which may alias
     * anything addressable) do not force it back to memory.
     */
    struct LaneCursor
    {
        Addr addr = 0;
        unsigned segLeft = 0;
        std::uint64_t left = 0;
        std::uint64_t next = 0;
        Cycles inFree = 0;
        Addr lastRow = 0;
        const Lane *lane = nullptr;
        Cycles *ring = nullptr;
        std::uint64_t mask = 0;
        unsigned cap = 0;
        const std::uint8_t *dram = nullptr;
        unsigned rowShift = 0;
        Cycles rowPenalty = 0;
        Cycles hop = 0;     //!< push to FIFO arrival, netBaseLatency + 1
    };
    /** The cursor of lane tile @p t; its staged words (pulled, in
     *  the FIFO, not yet popped) count as pulled. */
    LaneCursor laneCursor(unsigned t);
    /** Store @p c back into lane @p t's port. */
    void laneStore(unsigned t, LaneCursor c);
    /**
     * Pull the next word of the lane's stream at the cycle the port
     * would push it, q = max(inFree, pop(next - cap) + 1), and charge
     * the port its row cost. Stores the word in @p v and returns its
     * FIFO arrival cycle, q + netBaseLatency + 1.
     */
    [[gnu::always_inline]] Cycles pull(LaneCursor &c, Word &v);
    /** The lane's segment ran out: retire it and return the next
     *  one's first word and length (0, 0 at the stream's end). */
    std::pair<Addr, unsigned> laneNextSegment(const Lane &ln);
    /** Pull into lane @p t's FIFO the words its op at pc pops, as far
     *  as the stream and the FIFO's capacity allow, for stepTile. */
    void laneStage(unsigned t, unsigned pops);
    /** Lane @p t halts at @p now: push the words the port would have
     *  pushed by then, and hand the rest of the stream back to the
     *  stepped port. */
    void laneFlush(unsigned t, Cycles now);

    /** Pop one $csti word of tile @p t at @p now (stepTile). */
    [[gnu::always_inline]] Word popWord(unsigned t, TileHot &tile,
                                        Cycles now);

    /** fp_ops and loads_stores of the ops one stepTile or batch
     *  executed: kept in registers, added to the stats on exit. */
    struct OpCounts
    {
        std::uint64_t fp = 0;
        std::uint64_t ldst = 0;
        std::uint64_t sends = 0;    //!< batched port sends (portWork)
    };

    /**
     * Execute @p u, the op at @p pc of tile @p t, at cycle @p now,
     * on operands @p a (rs) and @p b (rt), which the caller read or
     * popped, with its timing and side effects; what a tile-local op
     * computes comes from local<Op>() in machine.cc. The caller has
     * checked that the op's operands and network resources
     * are ready, and it advances the tile's pc and retire count.
     * Returns the next pc. A Batch call declines (returns kDeclined,
     * no side effect) a load or store that reaches global DRAM, and
     * sends to the tile's solo port: inline OnLane, whose batches
     * stream, out of line otherwise.
     */
    template <bool Batch, bool OnLane = false>
    [[gnu::always_inline]] unsigned execute(unsigned t, TileHot &tile,
                                            Uop u, unsigned pc,
                                            Cycles now, Word a, Word b,
                                            OpCounts &counts);
    static constexpr unsigned kDeclined = ~0u;

    /**
     * A block's value run (DESIGN D12 (5)): execute tile @p t's ops
     * [pc, end) with no timing or counting, each send issuing @p at
     * plus its offset in @p sendAt, and set @p pc to the last op's
     * next pc. Returns false with pc at a load or store that reaches
     * global DRAM, having run the ops before it. Without Sends the
     * block holds none.
     */
    template <bool Sends>
    [[gnu::always_inline]] bool runValues(unsigned t, TileHot &tile,
                                          unsigned &pc, unsigned end,
                                          const std::uint32_t *sendAt,
                                          Cycles at);

    /** A batch may reach @p u: it is no halt or dynamic-network op,
     *  pops only on a lane, and sends only to a port the tile alone
     *  feeds. */
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

    /** Advance one DMA engine for one cycle (its DMA-out half only
     *  while drains are stepped, not lazy). */
    [[gnu::always_inline]] void stepPort(Port &port, Cycles now);

    /** Write the port's front arrival to its DMA-out segment at
     *  @p now (the port's outFree and the word's arrival have come). */
    [[gnu::always_inline]] void drainOne(Port &port, Cycles now);

    /**
     * Lazy drains: perform port @p p's DMA-out writes due at or
     * before @p upTo. Drain i happens at max(outFree, arrival i),
     * exactly when the stepped port would do it. Returns the cycle
     * after the last drain performed (0 if none).
     */
    Cycles settle(unsigned p, Cycles upTo);
    /** settle() every port with lazy DMA-out work, up to @p upTo:
     *  before a tile's global lw/sw at @p upTo reads or writes DRAM. */
    void settleAll(Cycles upTo);

    /** Sw of tile @p t to global byte offset @p off, inside the DMA-in
     *  source hull: fatal if a DMA-in segment of the run reads it. */
    void checkSourceStore(unsigned t, Addr off);

    /** Whether this run may pull lanes and drain lazily: no word is
     *  both a DMA-in source and a DMA-out target, and no two ports'
     *  DMA-out segments overlap. */
    bool streamsExact() const;
    /** Set up this run's lanes and lazy drains (runEvent). */
    void openStreams();

    /** A batched send of @p value to @p port at @p now. */
    [[gnu::always_inline]] void soloSend(Port &port, Word value,
                                         Cycles now);
    [[gnu::noinline]] void soloSendCold(Port &port, Word value,
                                        Cycles now);

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
    /** Per tile; meaningful while the tile is a lane. */
    std::vector<Lane> lanes;
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
    /** Result latency by opcode. */
    std::array<std::uint8_t, 32> opLatency{};
    /** A word at addr is local SRAM when addr + 4 <= sramEnd: the
     *  smaller of the SRAM size and globalBase + 3. */
    Addr sramEnd = 0;
    /** Run-ahead bound of batched port sends: a batch stops sending
     *  once it has queued this many words (one DRAM row) at the port
     *  (Port::sendLimit), and an unbatched send settles lazy drains
     *  while this many wait there. */
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

    /** This run pulls lanes and drains lazily (runEvent; never in the
     *  cycle-at-a-time witness). */
    bool streams = false;
    /** Bit p set while port p has lazy DMA-out work. */
    std::uint64_t drainMask = 0;
    /** Slot i of a lane's ring is i & laneMask. */
    std::uint64_t laneMask = 0;
    /** The run's DMA-in source hull, as global byte offsets
     *  [srcLo, srcLo + srcSpan); srcSpan is 0 without DMA-in. */
    Addr srcLo = 0;
    Addr srcSpan = 0;
    /** The run's DMA-in sources merged and sorted, built on the first
     *  sw into the hull. */
    std::vector<std::pair<Addr, Addr>> srcRanges;

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
