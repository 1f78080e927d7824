#include "machine.hh"

#include <algorithm>
#include <bit>
#include <cstring>
#include <sstream>

#include "sim/bitutil.hh"
#include "sim/logging.hh"

namespace triarch::raw
{

namespace
{

/** The event loop's live-tile and busy-port sets are bits of one
 *  64-bit word, so a mesh must have 1..64 tiles. */
const RawConfig &
checkMeshSize(const RawConfig &c)
{
    if (c.tiles() == 0 || c.tiles() > 64) {
        triarch_fatal("Raw mesh ", c.meshWidth, "x", c.meshHeight,
                      " has ", c.tiles(), " tiles; 1..64 supported");
    }
    return c;
}

/** Index of the lowest set bit of @p mask (non-zero), cleared. */
unsigned
popLowBit(std::uint64_t &mask)
{
    const unsigned i = static_cast<unsigned>(std::countr_zero(mask));
    mask &= mask - 1;
    return i;
}

constexpr std::uint64_t
bitOf(unsigned i)
{
    return std::uint64_t{1} << i;
}

/** Die on a tile program fault (a wild access, a run off the end).
 *  Out of line and taking plain values, so that the interpreter's hot
 *  loops need not keep their operands addressable. */
[[noreturn, gnu::cold, gnu::noinline]] void
tileFault(unsigned t, const char *what)
{
    triarch_panic("tile ", t, what);
}

[[noreturn, gnu::cold, gnu::noinline]] void
tileFault(unsigned t, const char *what, std::uint64_t at)
{
    triarch_panic("tile ", t, what, at);
}

/** Latency classes of RawMachine::latency. */
enum : std::uint8_t { kInt, kMul, kFp, kLoad };

/** What decoding needs of an opcode: the operands it reads, whether
 *  it has a result, whether it only ever issues through stepTile (the
 *  dynamic-network ops and halt), and its result's latency class.
 *  What the opcode computes lives in RawMachine::execute(). */
struct Format
{
    bool rs, rt, rd, step;
    std::uint8_t lat;
};

constexpr Format formats[] = {
    //              rs rt rd step
    /* Nop   */ {0, 0, 0, 0, kInt},
    /* Add   */ {1, 1, 1, 0, kInt},
    /* Addi  */ {1, 0, 1, 0, kInt},
    /* Sub   */ {1, 1, 1, 0, kInt},
    /* Mul   */ {1, 1, 1, 0, kMul},
    /* Sll   */ {1, 0, 1, 0, kInt},
    /* Sra   */ {1, 0, 1, 0, kInt},
    /* Srl   */ {1, 0, 1, 0, kInt},
    /* And   */ {1, 1, 1, 0, kInt},
    /* Or    */ {1, 1, 1, 0, kInt},
    /* Xor   */ {1, 1, 1, 0, kInt},
    /* Li    */ {0, 0, 1, 0, kInt},
    /* FAdd  */ {1, 1, 1, 0, kFp},
    /* FSub  */ {1, 1, 1, 0, kFp},
    /* FMul  */ {1, 1, 1, 0, kFp},
    /* Lw    */ {1, 0, 1, 0, kLoad},
    /* Sw    */ {1, 1, 0, 0, kInt},
    /* Beq   */ {1, 1, 0, 0, kInt},
    /* Bne   */ {1, 1, 0, 0, kInt},
    /* Blt   */ {1, 1, 0, 0, kInt},
    /* Bge   */ {1, 1, 0, 0, kInt},
    /* Jump  */ {0, 0, 0, 0, kInt},
    /* Halt  */ {0, 0, 0, 1, kInt},
    /* Dsend */ {1, 1, 0, 1, kInt},
    /* Drecv */ {0, 0, 1, 1, kInt},
};
static_assert(std::size(formats) == static_cast<unsigned>(Op::Drecv) + 1,
              "formats must cover every opcode");

/** The Uop latency field holds 8 bits. */
std::uint8_t
latencyByte(Cycles lat)
{
    if (lat > 255)
        triarch_fatal("Raw latency ", lat, " exceeds 255 cycles");
    return static_cast<std::uint8_t>(lat);
}

} // namespace

RawMachine::RawMachine(const RawConfig &machine_config)
    : cfg(checkMeshSize(machine_config)), hot(cfg.tiles()),
      cold(cfg.tiles()),
      wake(cfg.tiles(), kNever), ports(cfg.tiles()),
      global(cfg.globalBytes),
      latency{latencyByte(cfg.intLatency), latencyByte(cfg.mulLatency),
              latencyByte(cfg.fpLatency), latencyByte(cfg.loadLatency)},
      sendAhead(cfg.portRowBytes / 4), group("raw")
{
    triarch_assert(isPowerOf2(cfg.portRowBytes),
                   "Raw port row size must be a power of two");
    portRowShift = floorLog2(cfg.portRowBytes);
    for (unsigned t = 0; t < cfg.tiles(); ++t) {
        cold[t].sram.assign(cfg.sramBytes, 0);
        mem::CacheConfig cc;
        cc.name = "raw.tile" + std::to_string(t) + ".dcache";
        cc.sizeBytes = cfg.cacheBytes;
        cc.assoc = cfg.cacheAssoc;
        cc.lineBytes = cfg.cacheLineBytes;
        cold[t].cache = std::make_unique<mem::SetAssocCache>(cc);
        hot[t].sram = cold[t].sram.data();
        hot[t].cache = cold[t].cache.get();
        hot[t].halted = true;       // no program yet
        // The input FIFO is capacity-limited, so reserving it here
        // makes every later push allocation-free.
        hot[t].inFifo.reserve(cfg.fifoCapacity);
    }
    group.addScalar("instructions", &_instrs, "instructions retired");
    group.addScalar("net_stalls", &_netStalls,
                    "cycles stalled on empty network FIFO");
    group.addScalar("dep_stalls", &_depStalls,
                    "stalls on operand latency");
    group.addScalar("cache_stall_cycles", &_cacheStalls,
                    "cycles stalled on cache misses");
    group.addScalar("loads_stores", &_ldst, "lw/sw instructions");
    group.addScalar("fp_ops", &_fpops, "floating-point instructions");
    group.addScalar("dma_in_words", &_wordsDmaIn, "words streamed in");
    group.addScalar("dma_out_words", &_wordsDmaOut,
                    "words streamed out");
    group.addScalar("cycles", &_cycles, "total machine cycles");
    group.addDistribution("tile_instr_share", &_tileShare,
                          "per-tile instructions relative to the "
                          "busiest tile");
    accountStats.registerIn(group);
}

Addr
RawMachine::allocGlobal(std::uint64_t bytes, const std::string &what)
{
    Addr addr = 0;
    // Checked arithmetic throughout: a huge `bytes` (or an allocNext
    // near the top of the address space) must exhaust, not wrap the
    // bound check and hand out overlapping memory.
    if (!roundUpChecked(allocNext, 64, addr) || bytes > global.size()
        || addr > global.size() - bytes) {
        triarch_fatal("Raw global DRAM exhausted allocating ", bytes,
                      " bytes for ", what);
    }
    allocNext = addr + bytes;
    global.adviseDense(addr, bytes);
    return globalBase + addr;
}

void
RawMachine::pokeGlobal(Addr addr, std::span<const Word> words)
{
    triarch_assert(addr >= globalBase, "poke below global base");
    const Addr off = addr - globalBase;
    triarch_assert(off + words.size() * 4 <= global.size(),
                   "poke outside global DRAM");
    std::memcpy(global.data() + off, words.data(), words.size() * 4);
}

std::vector<Word>
RawMachine::peekGlobal(Addr addr, std::size_t count) const
{
    std::vector<Word> out(count);
    peekGlobalInto(addr, out);
    return out;
}

void
RawMachine::peekGlobalInto(Addr addr, std::span<Word> out) const
{
    triarch_assert(addr >= globalBase, "peek below global base");
    const Addr off = addr - globalBase;
    triarch_assert(off + out.size() * 4 <= global.size(),
                   "peek outside global DRAM");
    std::memcpy(out.data(), global.data() + off, out.size() * 4);
}

inline std::uint32_t
RawMachine::decode(const Instr &in) const
{
    triarch_assert(static_cast<unsigned>(in.op) < std::size(formats)
                       && ((in.rd | in.rs | in.rt) & ~(numRegs - 1)) == 0,
                   "malformed instruction");
    // Branch-free: every instruction of every program is decoded,
    // and a sweep-sized CSLC cell runs each one only ~15 times.
    const Format f = formats[static_cast<unsigned>(in.op)];
    const unsigned rs = in.rs & -unsigned{f.rs};
    const unsigned rt = in.rt & -unsigned{f.rt};
    const unsigned rd = in.rd & -unsigned{f.rd};
    const unsigned popRs = rs == regCsti;
    const unsigned popRt = rt == regCsti;
    const unsigned send = rd == regCsto;
    const unsigned sink = (rd == 0) | send;
    const unsigned batch = !(popRs | popRt | f.step);
    return static_cast<unsigned>(in.op) | popRs << 5 | popRt << 6
           | send << 7 | (sink ? regSink : rd) << 8
           | (popRs ? 0 : rs) << 13 | (popRt ? 0 : rt) << 18
           | batch << 23 | unsigned{latency[f.lat]} << 24;
}

void
RawMachine::logOp(unsigned t, Cycles now, Uop u)
{
    const auto reg = [](unsigned r) { return static_cast<std::uint8_t>(r); };
    const Instr in{u.op(),
                   reg(u.send() ? regCsto : u.rd() == regSink ? 0 : u.rd()),
                   reg(u.popRs() ? regCsti : u.rs()),
                   reg(u.popRt() ? regCsti : u.rt()), u.imm};
    debugLog("raw tile ", t, " @", now, ": ", disassemble(in));
}

void
RawMachine::setProgram(unsigned tile, std::vector<Instr> program)
{
    triarch_assert(tile < cfg.tiles(), "tile out of range");
    TileCold &c = cold[tile];
    TileHot &h = hot[tile];
    // Decode in place: a Uop is Instr-sized, so the op stream reuses
    // the program's buffer, cache-hot and already paged in.
    for (Instr &in : program)
        in = std::bit_cast<Instr>(Uop{decode(in), in.imm});
    c.program = std::move(program);
    h.prog = c.program.data();
    h.progLen = static_cast<std::uint32_t>(c.program.size());
    h.pc = 0;
    h.halted = c.program.empty();
    if (h.halted)
        liveTileMask &= ~bitOf(tile);
    else
        liveTileMask |= bitOf(tile);
}

void
RawMachine::pokeLocal(unsigned tile, Addr byte_offset,
                      std::span<const Word> words)
{
    triarch_assert(tile < cfg.tiles(), "tile out of range");
    triarch_assert(byte_offset + words.size() * 4 <= cfg.sramBytes,
                   "poke outside tile SRAM");
    std::memcpy(cold[tile].sram.data() + byte_offset, words.data(),
                words.size() * 4);
}

std::vector<Word>
RawMachine::peekLocal(unsigned tile, Addr byte_offset,
                      std::size_t count) const
{
    triarch_assert(tile < cfg.tiles(), "tile out of range");
    triarch_assert(byte_offset + count * 4 <= cfg.sramBytes,
                   "peek outside tile SRAM");
    std::vector<Word> out(count);
    std::memcpy(out.data(), cold[tile].sram.data() + byte_offset,
                count * 4);
    return out;
}

void
RawMachine::setRoute(unsigned tile, unsigned endpoint)
{
    triarch_assert(tile < cfg.tiles(), "tile out of range");
    triarch_assert(endpoint < cfg.tiles()
                       || (endpoint >= 1000
                           && endpoint < 1000 + cfg.tiles()),
                   "bad route endpoint");
    hot[tile].route = endpoint;
}

void
RawMachine::dmaIn(unsigned port, unsigned dstTile, Addr base,
                  unsigned words)
{
    triarch_assert(port < ports.size() && dstTile < cfg.tiles(),
                   "bad port or tile");
    triarch_assert(base >= globalBase, "DMA below global base");
    // A zero-word segment is a no-op. Queueing it would wedge the
    // port: stepPorts() only retires a segment after streaming a
    // word, so done (1, 2, ...) never equals words (0) and the run
    // loop spins forever waiting for the queue to drain.
    if (words == 0)
        return;
    hot[dstTile].dmaFed = true;
    ports[port].inQueue.push_back({base - globalBase, words, dstTile});
    busyPortMask |= bitOf(port);
    ++portWork;
}

void
RawMachine::dmaOut(unsigned port, Addr base, unsigned words)
{
    triarch_assert(port < ports.size(), "bad port");
    triarch_assert(base >= globalBase, "DMA below global base");
    if (words == 0)
        return;
    ports[port].outQueue.push_back({base - globalBase, words, 0});
    busyPortMask |= bitOf(port);
    ++portWork;
}

unsigned
RawMachine::hops(unsigned a, unsigned b) const
{
    const int ar = a / cfg.meshWidth, ac = a % cfg.meshWidth;
    const int br = b / cfg.meshWidth, bc = b % cfg.meshWidth;
    return static_cast<unsigned>(std::abs(ar - br) + std::abs(ac - bc));
}

inline void
RawMachine::noteFifoPush(unsigned t)
{
    // If the tile went to sleep on $csti with too few queued words
    // to know its wake cycle, this push may be the one it awaits.
    TileHot &h = hot[t];
    if (h.waitPops != 0 && h.inFifo.size() >= h.waitPops) {
        wake[t] = h.inFifo[h.waitPops - 1].first;
        h.waitPops = 0;
    }
}

inline void
RawMachine::send(unsigned t, Word value, Cycles now)
{
    const unsigned route = hot[t].route;
    if (route == ~0u)
        tileFault(t, " writes $csto without a configured route");
    if (route >= 1000) {
        // Peripheral port: one hop from the attached tile.
        ports[route - 1000].arrivals.emplace_back(
            now + cfg.netBaseLatency + 1, value);
        ++portWork;
    } else {
        const Cycles arrival =
            now + cfg.netBaseLatency + std::max(1u, hops(t, route));
        hot[route].inFifo.emplace_back(arrival, value);
        noteFifoPush(route);
    }
}

void
RawMachine::tallyStall(TileStall kind, Cycles now)
{
    switch (kind) {
      case TileStall::Dep:
        ++tcDep;
        break;
      case TileStall::Cache:
        ++tcCache;
        break;
      case TileStall::Net:
        ++tcNet;
        break;
      case TileStall::Dma:
        ++tcDma;
        break;
      case TileStall::None:
        // Every path that pushes stallUntil into the future records
        // why; a future stall with no kind is a modelling bug.
        triarch_panic("Raw tile stalled with no recorded stall kind");
    }
    // Epoch channel index = TileStall ordinal - 1 (None panics above).
    hwSamp.addAt(static_cast<std::size_t>(kind) - 1, now);
}

void
RawMachine::stepTile(unsigned t, Cycles now)
{
    TileHot &tile = hot[t];
    if (tile.halted) {
        ++tcIdle;
        hwSamp.addAt(4, now);
        wake[t] = kNever;
        return;
    }
    if (tile.stallUntil > now) {
        tallyStall(tile.stallKind, now);
        // The scalar has to agree with the tallies: re-stall cycles
        // of a network-kind stall (Dsend injection occupancy) are
        // network stall cycles too.
        if (tile.stallKind == TileStall::Net
            || tile.stallKind == TileStall::Dma) {
            ++_netStalls;
        }
        wake[t] = tile.stallUntil;
        return;
    }
    if (tile.pc >= tile.progLen)
        tileFault(t, " ran off its program at pc ", tile.pc);
    const Uop u = tile.op(tile.pc);

    // Network-input availability: each $csti operand pops one word.
    const unsigned pops = u.popRs() + u.popRt();
    if (pops > 0
        && (tile.inFifo.size() < pops
            || tile.inFifo[pops - 1].first > now)) {
        ++_netStalls;
        tile.stallKind = tile.dmaFed ? TileStall::Dma : TileStall::Net;
        tallyStall(tile.stallKind, now);
        tile.stallUntil = now + 1;
        if (tile.inFifo.size() >= pops) {
            wake[t] = tile.inFifo[pops - 1].first;
        } else {
            tile.waitPops = static_cast<std::uint8_t>(pops);
            wake[t] = kNever;
        }
        return;
    }

    // Dynamic-network receive availability.
    if (u.op() == Op::Drecv
        && (tile.dynFifo.empty() || tile.dynFifo.front().first > now)) {
        ++_netStalls;
        tile.stallKind = TileStall::Net;
        tallyStall(tile.stallKind, now);
        tile.stallUntil = now + 1;
        if (!tile.dynFifo.empty()) {
            wake[t] = tile.dynFifo.front().first;
        } else {
            tile.waitDyn = true;
            wake[t] = kNever;
        }
        return;
    }

    // Operand readiness (scoreboarded latencies).
    const Cycles rdy = std::max(tile.ready[u.rs()], tile.ready[u.rt()]);
    if (rdy > now) {
        ++_depStalls;
        tile.stallKind = TileStall::Dep;
        tallyStall(tile.stallKind, now);
        tile.stallUntil = rdy;
        wake[t] = rdy;
        return;
    }

    // If this instruction sends to a tile whose FIFO is full, block.
    // No wake cycle is knowable (the consumer frees a slot whenever
    // it happens to pop), so re-poll every cycle like the reference.
    if (u.send() && tile.route < 1000
        && hot[tile.route].inFifo.size() >= cfg.fifoCapacity) {
        ++_netStalls;
        tile.stallKind = TileStall::Net;
        tallyStall(tile.stallKind, now);
        tile.stallUntil = now + 1;
        wake[t] = now + 1;
        return;
    }

    OpCounts counts;
    tile.pc = execute<false>(t, tile, u, tile.pc, now, counts);
    ++tile.instrs;
    _fpops += counts.fp;
    _ldst += counts.ldst;

    if (debugTrace) [[unlikely]]
        logOp(t, now, u);

    // A retire with no pending stall window can keep going in a
    // batch (event stepper only). The first op's test runs inline so
    // streaming code, which mostly cannot batch, skips the call.
    if (batching && !tile.halted && tile.stallUntil <= now + 1
        && tile.pc < tile.progLen) {
        const Uop next = tile.op(tile.pc);
        if (canBatch(tile, next) && !reachesGlobal(tile, next)) {
            batchTile(t, now + 1);
            return;
        }
    }

    // Next wake: immediately unless the retire scheduled a stall
    // window (cache-miss service, Dsend injection occupancy).
    wake[t] = tile.halted ? kNever : std::max(now + 1, tile.stallUntil);
}

template <bool Batch>
inline unsigned
RawMachine::execute(unsigned t, TileHot &tile, const Uop u, unsigned pc,
                    Cycles now, OpCounts &counts)
{
    // A $csti operand pops its word, rs before rt. The caller saw it
    // arrive, so now - arrival is the word's FIFO residency.
    const auto pop = [&]() -> Word {
        fifoWordCycles += now - tile.inFifo.front().first;
        const Word v = tile.inFifo.front().second;
        tile.inFifo.pop_front();
        return v;
    };
    const Word a = !Batch && u.popRs() ? pop() : tile.regs[u.rs()];
    const Word b = !Batch && u.popRt() ? pop() : tile.regs[u.rt()];
    const auto imm = static_cast<std::uint32_t>(u.imm);

    // Way-predicted hit fast path first (D13): exact by construction,
    // so a matching memo proves residency and a hit costs nothing. A
    // miss stalls the tile; returns the extra load latency.
    const auto billCache = [&](Addr addr, bool store) -> Cycles {
        if (tile.cache->accessFast(addr, store))
            return 0;
        const auto res = tile.cache->access(addr, store);
        if (res.hit)
            return 0;
        Cycles extra = cfg.cacheMissPenalty;
        if (res.writebackAddr)
            extra += cfg.writebackPenalty;
        _cacheStalls += extra;
        tile.stallKind = TileStall::Cache;
        tile.stallUntil = now + 1 + extra;
        return extra;
    };

    Word v = 0;
    Cycles lat = u.lat();
    unsigned next = pc + 1;
    switch (u.op()) {
      case Op::Nop:
        break;
      case Op::Add:
        v = a + b;
        break;
      case Op::Addi:
        v = a + imm;
        break;
      case Op::Sub:
        v = a - b;
        break;
      case Op::Mul:
        v = a * b;
        break;
      case Op::Sll:
        v = a << (imm & 31);
        break;
      case Op::Sra:
        v = static_cast<Word>(static_cast<std::int32_t>(a) >> (imm & 31));
        break;
      case Op::Srl:
        v = a >> (imm & 31);
        break;
      case Op::And:
        v = a & b;
        break;
      case Op::Or:
        v = a | b;
        break;
      case Op::Xor:
        v = a ^ b;
        break;
      case Op::Li:
        v = imm;
        break;
      case Op::FAdd:
        v = floatToWord(wordToFloat(a) + wordToFloat(b));
        ++counts.fp;
        break;
      case Op::FSub:
        v = floatToWord(wordToFloat(a) - wordToFloat(b));
        ++counts.fp;
        break;
      case Op::FMul:
        v = floatToWord(wordToFloat(a) * wordToFloat(b));
        ++counts.fp;
        break;
      case Op::Lw: {
        // Global DRAM is shared with the other tiles and the ports,
        // and the cache bills it, so a batch declines it untouched.
        const Addr addr = a + imm;
        if (addr >= globalBase) {
            if constexpr (Batch)
                return kDeclined;
            const Addr off = addr - globalBase;
            if (off + 4 > global.size())
                tileFault(t, " lw outside global DRAM @", addr);
            std::memcpy(&v, global.data() + off, 4);
            lat += billCache(addr, false);
        } else {
            if (addr + 4 > cfg.sramBytes)
                tileFault(t, " lw outside SRAM @", addr);
            std::memcpy(&v, tile.sram + addr, 4);
        }
        ++counts.ldst;
        break;
      }
      case Op::Sw: {
        const Addr addr = a + imm;
        if (addr >= globalBase) {
            if constexpr (Batch)
                return kDeclined;
            const Addr off = addr - globalBase;
            if (off + 4 > global.size())
                tileFault(t, " sw outside global DRAM @", addr);
            std::memcpy(global.data() + off, &b, 4);
            billCache(addr, true);
        } else {
            if (addr + 4 > cfg.sramBytes)
                tileFault(t, " sw outside SRAM @", addr);
            std::memcpy(tile.sram + addr, &b, 4);
        }
        ++counts.ldst;
        break;
      }
      case Op::Beq:
        if (a == b)
            next = imm;
        break;
      case Op::Bne:
        if (a != b)
            next = imm;
        break;
      case Op::Blt:
        if (static_cast<std::int32_t>(a) < static_cast<std::int32_t>(b))
            next = imm;
        break;
      case Op::Bge:
        if (static_cast<std::int32_t>(a) >= static_cast<std::int32_t>(b))
            next = imm;
        break;
      case Op::Jump:
        next = imm;
        break;
      case Op::Halt:
        tile.halted = true;
        cold[t].haltCycle = now;
        liveTileMask &= ~bitOf(t);
        next = pc;
        break;
      case Op::Dsend: {
        const unsigned dest = a;
        if (dest >= cfg.tiles())
            tileFault(t, " dsend to bad tile ", dest);
        const Cycles arrival =
            now + cfg.dynBaseLatency + std::max(1u, hops(t, dest));
        hot[dest].dynFifo.emplace_back(arrival, b);
        if (hot[dest].waitDyn) {
            hot[dest].waitDyn = false;
            wake[dest] = arrival;
        }
        // The packet (header + data) occupies the injection port.
        tile.stallKind = TileStall::Net;
        tile.stallUntil = now + cfg.dynSendOccupancy;
        break;
      }
      case Op::Drecv:
        v = tile.dynFifo.front().second;
        tile.dynFifo.pop_front();
        break;
    }

    if (u.send()) {
        send(t, v, now);
    } else {
        tile.regs[u.rd()] = v;
        tile.ready[u.rd()] = now + lat;
    }
    return next;
}

inline bool
RawMachine::canBatch(const TileHot &tile, const Uop u) const
{
    return u.batch() && (!u.send() || tile.soloPort != nullptr);
}

inline bool
RawMachine::reachesGlobal(const TileHot &tile, const Uop u) const
{
    // No one else writes the tile's registers, so the base register
    // already holds the address the op will use.
    return (u.op() == Op::Lw || u.op() == Op::Sw)
           && Addr{tile.regs[u.rs()] + static_cast<Word>(u.imm)}
                  >= globalBase;
}

/**
 * Execute a run of ops in one call, advancing a private cycle cursor
 * ahead of the event loop's `now`.
 *
 * Soundness: the batch runs tile-local ops (register and SRAM
 * compute, branches) and $csto sends to a port the tile alone feeds.
 * No other actor reads the tile's private state (FIFO pushes append
 * without looking at registers or SRAM), and the tile reads nothing
 * another actor writes. A send to a DRAM port never blocks, and the
 * port drains its arrival queue front first, each word no earlier
 * than its arrival cycle. One sender enqueues in cycle order, so a
 * word queued early is drained exactly when the reference drains it.
 * A second sender's words would land behind batched words with later
 * arrival cycles and drain out of order, which is why run() grants
 * port sends to single senders only; sendAhead bounds how far ahead
 * the queue may grow. The batch therefore commutes with the rest of
 * the cycle interleaving, and every counter lands on the value the
 * cycle-at-a-time reference accrues: busy cycles are the retired
 * instruction count, and operand-latency gaps add to tcDep in bulk
 * with one dep_stalls event each, like the reference's stall entry
 * plus its per-cycle stallUntil re-polls.
 *
 * The batch breaks BEFORE any other externally visible op: $csti
 * pops, sends to tiles or shared ports, dynamic-network ops, halt,
 * and loads/stores that reach global DRAM. That op issues through
 * stepTile at the cursor cycle, so tiles leave the live set only at
 * the event loop's `now`.
 */
void
RawMachine::batchTile(unsigned t, Cycles cur)
{
    TileHot &tile = hot[t];
    // The loop state lives in locals: SRAM stores go through a byte
    // pointer, which would otherwise force every op to reload it.
    const Instr *const prog = tile.prog;
    const std::uint32_t len = tile.progLen;
    const Port *const port = tile.soloPort;
    const Cycles limit = cfg.maxCycles;
    unsigned pc = tile.pc;
    std::uint64_t retired = 0, depCycles = 0, depEvents = 0;
    OpCounts counts;
    for (; cur <= limit; ++cur) {
        if (pc >= len)
            tileFault(t, " ran off its program at pc ", pc);
        const Uop u = std::bit_cast<Uop>(prog[pc]);
        if (!canBatch(tile, u))
            break;
        // The scoreboard is the first stall test such an op meets, so
        // its operand wait is tile-private and accrues here even when
        // the op itself must then issue through stepTile.
        const Cycles rdy = std::max(tile.ready[u.rs()], tile.ready[u.rt()]);
        if (rdy > cur) {
            depCycles += rdy - cur;
            ++depEvents;
            hwSamp.addRange(0, cur, rdy);
            cur = rdy;
        }
        if (u.send() && port->arrivals.size() >= sendAhead)
            break;
        const unsigned next = execute<true>(t, tile, u, pc, cur, counts);
        if (next == kDeclined)
            break;
        pc = next;
        ++retired;
    }
    tile.pc = pc;
    tile.instrs += retired;
    tcDep += depCycles;
    _depStalls += depEvents;
    _fpops += counts.fp;
    _ldst += counts.ldst;
    // The op at `pc` issues at `cur` through the normal path; every
    // cycle below `cur` is accounted (busy via the per-tile retire
    // count, waits via tcDep).
    tile.talliedThrough = cur;
    wake[t] = cur;
}

inline void
RawMachine::stepPort(Port &port, Cycles now)
{
    std::uint8_t *const dram = global.data();
    // DMA in: stream one word per cycle into the tile FIFO.
    if (!port.inQueue.empty() && port.inFree <= now) {
        DmaSegment &seg = port.inQueue.front();
        TileHot &dst = hot[seg.dstTile];
        if (dst.inFifo.size() < cfg.fifoCapacity) {
            const Addr a = seg.base + static_cast<Addr>(seg.done) * 4;
            Word v = 0;
            std::memcpy(&v, dram + a, 4);
            dst.inFifo.emplace_back(now + cfg.netBaseLatency + 1, v);
            noteFifoPush(seg.dstTile);
            ++_wordsDmaIn;

            Cycles cost = 1;
            const Addr row = rowOf(a);
            if (row != port.inLastRow) {
                cost += cfg.portRowMissPenalty;
                port.inLastRow = row;
            }
            port.inFree = now + cost;
            if (++seg.done == seg.words) {
                port.inQueue.pop_front();
                --portWork;
            }
        }
    }

    // DMA out: drain one arrived word per cycle to memory.
    if (!port.outQueue.empty() && port.outFree <= now
        && !port.arrivals.empty()
        && port.arrivals.front().first <= now) {
        DmaSegment &seg = port.outQueue.front();
        const Word v = port.arrivals.front().second;
        port.arrivals.pop_front();
        --portWork;
        const Addr a = seg.base + static_cast<Addr>(seg.done) * 4;
        std::memcpy(dram + a, &v, 4);
        ++_wordsDmaOut;

        Cycles cost = 1;
        const Addr row = rowOf(a);
        if (row != port.outLastRow) {
            cost += cfg.portRowMissPenalty;
            port.outLastRow = row;
        }
        port.outFree = now + cost;
        if (++seg.done == seg.words) {
            port.outQueue.pop_front();
            --portWork;
        }
    }
}

inline void
RawMachine::stepPorts(Cycles now)
{
    // Ports with no queued segment cannot act (arrivals wait for an
    // out segment), so only the busy ones step, in port order.
    for (std::uint64_t m = busyPortMask; m != 0;) {
        const unsigned p = popLowBit(m);
        Port &port = ports[p];
        stepPort(port, now);
        if (port.inQueue.empty() && port.outQueue.empty())
            busyPortMask &= ~bitOf(p);
    }
}

void
RawMachine::stepAll(Cycles now)
{
    stepPorts(now);
    for (unsigned t = 0; t < cfg.tiles(); ++t)
        stepTile(t, now);
}

bool
RawMachine::allDone() const
{
    for (const auto &tile : hot) {
        if (!tile.halted)
            return false;
    }
    for (const auto &port : ports) {
        if (!port.inQueue.empty() || !port.outQueue.empty())
            return false;
        if (!port.arrivals.empty())
            return false;
    }
    return true;
}

void
RawMachine::creditSleep(unsigned t, Cycles now)
{
    TileHot &tile = hot[t];
    if (now <= tile.talliedThrough)
        return;
    const Cycles from = tile.talliedThrough;
    const std::uint64_t delta = now - from;
    tile.talliedThrough = now;
    // A sleeping tile's state cannot change, so every skipped cycle
    // tallies exactly what a cycle-at-a-time loop would have: idle
    // for halted tiles, otherwise the recorded stall kind. The
    // event-count scalars (dep_stalls, cache_stall_cycles) were
    // already bumped when the stall began; net_stalls counts
    // per-cycle and follows the tally. The epoch samples land on the
    // same cycles the reference loop's per-cycle tallies would.
    if (tile.halted) {
        tcIdle += delta;
        hwSamp.addRange(4, from, now);
        return;
    }
    switch (tile.stallKind) {
      case TileStall::Dep:
        tcDep += delta;
        break;
      case TileStall::Cache:
        tcCache += delta;
        break;
      case TileStall::Net:
        tcNet += delta;
        _netStalls += delta;
        break;
      case TileStall::Dma:
        tcDma += delta;
        _netStalls += delta;
        break;
      case TileStall::None:
        triarch_panic("Raw tile slept with no recorded stall kind");
    }
    hwSamp.addRange(static_cast<std::size_t>(tile.stallKind) - 1,
                    from, now);
}

inline Cycles
RawMachine::nextEventCycle(Cycles from) const
{
    // Halted tiles always sleep at kNever, so only live ones count.
    // Candidates below clamp to `from`, so nothing can beat it: the
    // all-tiles-busy steady state (ct, bs) exits at the first live
    // tile without touching the rest or the port scan.
    Cycles next = kNever;
    for (std::uint64_t m = liveTileMask; m != 0;) {
        next = std::min(next, wake[popLowBit(m)]);
        if (next <= from)
            return from;
    }
    for (std::uint64_t m = busyPortMask; m != 0;) {
        const Port &port = ports[popLowBit(m)];
        // A port with queued DMA-in work can act as soon as it is
        // free, unless the destination FIFO is full — then its next
        // chance strictly follows a consumer pop, which is itself a
        // tile-wake event, so no candidate is needed here.
        if (!port.inQueue.empty()
            && hot[port.inQueue.front().dstTile].inFifo.size()
                   < cfg.fifoCapacity) {
            next = std::min(next, std::max(port.inFree, from));
        }
        if (!port.outQueue.empty() && !port.arrivals.empty()) {
            next = std::min(
                next, std::max({port.outFree,
                                port.arrivals.front().first, from}));
        }
        if (next <= from)
            return from;
    }
    return next;
}

Cycles
RawMachine::runEvent()
{
    // Re-arm the scheduler state (a machine can run more than once):
    // tallies restart at cycle 0, and a tile left with a pending
    // stall window re-enters through stepTile's stallUntil branch
    // exactly like the reference loop re-polling it from cycle 0.
    for (unsigned t = 0; t < cfg.tiles(); ++t) {
        hot[t].talliedThrough = 0;
        hot[t].waitPops = 0;
        hot[t].waitDyn = false;
        wake[t] = hot[t].halted ? kNever : 0;
    }

    Cycles now = 0;
    while (liveTileMask != 0 || portWork != 0) {
        stepPorts(now);
        // Tiles only leave the live set mid-cycle (by halting), so
        // walking a snapshot visits exactly the tiles that can wake.
        for (std::uint64_t m = liveTileMask; m != 0;) {
            const unsigned t = popLowBit(m);
            if (wake[t] <= now) {
                if (now > hot[t].talliedThrough)
                    creditSleep(t, now);
                stepTile(t, now);
                if (hot[t].talliedThrough < now + 1)
                    hot[t].talliedThrough = now + 1;
            }
        }
        ++now;
        if (now > cfg.maxCycles) {
            triarch_fatal("Raw simulation exceeded ", cfg.maxCycles,
                          " cycles — deadlock or runaway program");
        }
        if (liveTileMask == 0 && portWork == 0)
            break;
        const Cycles next = nextEventCycle(now);
        if (next > cfg.maxCycles) {
            // Nothing can happen before the cap: the reference loop
            // would spin there tallying sleep, then die the same way.
            triarch_fatal("Raw simulation exceeded ", cfg.maxCycles,
                          " cycles — deadlock or runaway program");
        }
        now = next;
    }

    // Settle the books: cycles [talliedThrough, now) of every tile
    // were slept through (all remaining tiles are halted), so the
    // per-tile tally count reaches exactly `now`, the same partition
    // the reference loop accrues cycle by cycle.
    for (unsigned t = 0; t < cfg.tiles(); ++t)
        creditSleep(t, now);
    return now;
}

Cycles
RawMachine::run()
{
    debugTrace = logLevel() >= LogLevel::Debug;
    // Batched execution changes the order debug-trace lines
    // interleave across tiles (never their content), so tracing runs
    // stay cycle-at-a-time.
    batching = !debugTrace;
    // Routes are program properties and may change between runs, so
    // single senders are found afresh: a port fed by two tiles takes
    // their words in arrival order, which only stepping preserves.
    std::array<unsigned, 64> senders{};
    for (const TileHot &h : hot) {
        if (h.route - 1000 < ports.size())
            ++senders[h.route - 1000];
    }
    for (TileHot &h : hot) {
        const unsigned p = h.route - 1000;
        h.soloPort = p < ports.size() && senders[p] == 1 ? &ports[p]
                                                         : nullptr;
    }
    const Cycles now = loop();
    _cycles.set(now);

    // Close the FIFO-residency integral: words still queued at the
    // end of the run occupied their FIFO from arrival to the final
    // wall clock. The event loop and its test witness end at the
    // same `now` with the same queue contents, so this agrees too.
    for (const TileHot &tile : hot) {
        for (std::size_t i = 0; i < tile.inFifo.size(); ++i) {
            if (tile.inFifo[i].first < now)
                fifoWordCycles += now - tile.inFifo[i].first;
        }
    }

    // The per-instruction retire bookkeeping keeps only the per-tile
    // counter; the machine-wide scalar and the busy tally are its
    // exact (cumulative) sum, settled once per run.
    std::uint64_t retired = 0;
    for (const TileHot &tile : hot)
        retired += tile.instrs;
    _instrs.set(retired);
    tcBusy = retired;

    // Load-balance fingerprint: each tile's instruction count
    // relative to the busiest tile.
    std::uint64_t busiest = 0;
    for (const TileHot &t : hot)
        busiest = std::max(busiest, t.instrs);
    if (busiest > 0) {
        for (const TileHot &t : hot) {
            _tileShare.sample(static_cast<double>(t.instrs)
                              / static_cast<double>(busiest));
        }
    }

    // The net_stalls scalar counts per stalled cycle, so it must
    // track the network tile-cycle tallies exactly.
    triarch_assert(_netStalls.value() == tcNet + tcDma,
                   "net_stalls (", _netStalls.value(),
                   ") out of sync with network tile-cycle tallies (",
                   tcNet + tcDma, ")");
    return now;
}

stats::CycleBreakdown
RawMachine::cycleBreakdown(Cycles total)
{
    stats::CycleAccount account;
    // Average the per-tile-cycle tallies over the mesh: tiles() of
    // them accrue per wall cycle, so dividing by tiles() partitions
    // the wall clock. tiles() is a power of two, so the divisions
    // are exact in binary floating point and the exact finalize()
    // path holds when total is the measured wall clock.
    const double tiles = static_cast<double>(cfg.tiles());
    account.charge(stats::CycleCategory::Compute,
                   static_cast<double>(tcBusy + tcDep) / tiles);
    account.charge(stats::CycleCategory::CacheStall,
                   static_cast<double>(tcCache) / tiles);
    account.charge(stats::CycleCategory::DramDma,
                   static_cast<double>(tcDma) / tiles);
    account.charge(stats::CycleCategory::NetworkSync,
                   static_cast<double>(tcNet + tcIdle) / tiles);
    const stats::CycleBreakdown b =
        total == _cycles.value()
            ? account.finalize(total, stats::CycleCategory::NetworkSync)
            : account.finalizeScaled(total);
    accountStats.record(b);
    return b;
}

std::vector<std::pair<std::string, stats::StatGroup *>>
RawMachine::componentGroups()
{
    std::vector<std::pair<std::string, stats::StatGroup *>> out;
    for (unsigned t = 0; t < cfg.tiles(); ++t)
        out.emplace_back("dcache" + std::to_string(t),
                         &cold[t].cache->statGroup());
    return out;
}

hw::HwCell
RawMachine::hwCell(Cycles total, const stats::CycleBreakdown &breakdown)
{
    const Cycles measured = _cycles.value();
    const double tileCycles =
        static_cast<double>(cfg.tiles())
        * static_cast<double>(measured ? measured : 1);
    auto frac = [&](std::uint64_t part) {
        return measured
                   ? std::min(1.0, static_cast<double>(part)
                                       / tileCycles)
                   : 0.0;
    };

    std::uint64_t dHits = 0, dMisses = 0;
    for (const TileCold &c : cold) {
        dHits += c.cache->hits();
        dMisses += c.cache->misses();
    }
    const std::uint64_t dTotal = dHits + dMisses;
    const double dcacheHit =
        dTotal ? static_cast<double>(dHits) / dTotal : 0.0;
    const double fifoOcc =
        measured
            ? std::min(1.0, static_cast<double>(fifoWordCycles)
                                / (tileCycles * cfg.fifoCapacity))
            : 0.0;
    const double busyFrac = frac(tcBusy);
    const double idleFrac = frac(tcIdle);

    hw::HwCell cell;
    cell.cycles = total;
    cell.breakdown = breakdown;
    cell.metrics = {
        {"dcache_hit_rate", dcacheHit, true},
        {"mesh_fifo_occupancy", fifoOcc, true},
        {"tile_busy_fraction", busyFrac, true},
        {"idle_fraction", idleFrac, true},
        {"net_stall_fraction", frac(tcNet), true},
        {"dma_words_per_cycle",
         measured ? static_cast<double>(_wordsDmaIn.value()
                                        + _wordsDmaOut.value())
                        / static_cast<double>(measured)
                  : 0.0,
         false},
    };

    cell.verdict.category = hw::dominantCategory(breakdown);
    switch (cell.verdict.category) {
      case stats::CycleCategory::Compute:
        cell.verdict.component = "tiles";
        cell.verdict.detail = "issue-limited across the mesh, "
                              "busy frac "
                              + hw::fmt2(busyFrac) + ", dcache hit "
                              + hw::fmt2(dcacheHit);
        break;
      case stats::CycleCategory::CacheStall:
        cell.verdict.component = "dcache";
        cell.verdict.detail = "bound by tile cache misses, "
                              "dcache hit "
                              + hw::fmt2(dcacheHit);
        break;
      case stats::CycleCategory::DramDma:
        cell.verdict.component = "dma";
        cell.verdict.detail = "bound by DMA-fed FIFO waits, "
                              "fifo occ "
                              + hw::fmt2(fifoOcc) + ", busy frac "
                              + hw::fmt2(busyFrac);
        break;
      case stats::CycleCategory::NetworkSync:
        cell.verdict.component = "mesh";
        cell.verdict.detail = "bound by network waits and imbalance "
                              "idle, idle frac "
                              + hw::fmt2(idleFrac) + ", fifo occ "
                              + hw::fmt2(fifoOcc);
        break;
      case stats::CycleCategory::SetupReadback:
        cell.verdict.component = "host";
        cell.verdict.detail = "host setup dominates";
        break;
    }

    // The timeline closes over the measured wall clock — for the
    // CSLC extrapolated cell, events happened on the unbalanced run.
    cell.timeline = hwSamp.finalize(measured);

    // Derive the busy channel: every tile-cycle not tallied to a
    // stall or idle channel was a retire, so per epoch it is the
    // residual against tiles() x epoch span (exact; clamped only to
    // keep unsigned arithmetic safe against modelling drift).
    const std::size_t epochs = cell.timeline.epochs();
    hw::EpochChannel busy;
    busy.name = "busy";
    busy.counts.resize(epochs, 0);
    for (std::size_t e = 0; e < epochs; ++e) {
        const Cycles start =
            static_cast<Cycles>(e) * cell.timeline.epochCycles;
        const Cycles span =
            e + 1 == epochs ? measured - start
                            : cell.timeline.epochCycles;
        const std::uint64_t capacity =
            static_cast<std::uint64_t>(cfg.tiles()) * span;
        std::uint64_t others = 0;
        for (const hw::EpochChannel &ch : cell.timeline.channels)
            others += ch.counts[e];
        busy.counts[e] = capacity > others ? capacity - others : 0;
    }
    cell.timeline.channels.insert(cell.timeline.channels.begin(),
                                  std::move(busy));
    return cell;
}

std::uint64_t
RawMachine::tileInstructions(unsigned tile) const
{
    triarch_assert(tile < cfg.tiles(), "tile out of range");
    return hot[tile].instrs;
}

std::uint64_t
RawMachine::tileIdleAfterHalt(unsigned tile) const
{
    triarch_assert(tile < cfg.tiles(), "tile out of range");
    // A tile that never got a (non-empty) program never ran, so it
    // never *halted* — the constructor only parks it. Reporting the
    // whole run as idle-after-halt would poison imbalance metrics.
    if (cold[tile].program.empty())
        return 0;
    if (!hot[tile].halted || _cycles.value() == 0)
        return 0;
    return _cycles.value() - cold[tile].haltCycle;
}

std::string
RawMachine::describe() const
{
    std::ostringstream os;
    os << "Raw (tiled processor, MIT)\n"
       << "  " << cfg.meshWidth << "x" << cfg.meshHeight
       << " tiles, each a single-issue MIPS-like core with FPU and "
       << cfg.sramBytes / 1024 << " KB SRAM\n"
       << "  static mesh network: "
       << (cfg.netBaseLatency + 1)
       << "-cycle nearest-neighbour latency, 1 word/cycle/link, "
       << "+1 cycle per hop\n"
       << "  $csti/$csto network registers usable as instruction "
       << "operands\n"
       << "  " << cfg.tiles()
       << " peripheral DRAM ports, 1 word/cycle each\n"
       << "  clock " << cfg.clockMhz << " MHz, peak "
       << (cfg.clockMhz / 1000.0 * cfg.tiles()) << " GOPS\n";
    return os.str();
}

} // namespace triarch::raw
