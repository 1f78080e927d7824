#include "machine.hh"

#include <algorithm>
#include <bit>
#include <cstring>
#include <functional>
#include <sstream>
#include <tuple>

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
static_assert(formats[static_cast<unsigned>(Op::Halt)].step
                  && formats[static_cast<unsigned>(Op::Dsend)].step
                  && formats[static_cast<unsigned>(Op::Drecv)].step,
              "the stepTile-only opcodes come last, from Halt on");

/**
 * What tile-local opcode O computes from its operands a (rs) and b
 * (rt) and its immediate: the result of an ALU op, or whether a
 * branch is taken. The one place that holds these opcodes' semantics,
 * for RawMachine::execute() and a block's value run alike.
 */
template <Op O>
[[gnu::always_inline]] inline Word
local(Word a, Word b, std::uint32_t imm)
{
    const auto sa = static_cast<std::int32_t>(a);
    const auto sb = static_cast<std::int32_t>(b);
    if constexpr (O == Op::Add) return a + b;
    else if constexpr (O == Op::Addi) return a + imm;
    else if constexpr (O == Op::Sub) return a - b;
    else if constexpr (O == Op::Mul) return a * b;
    else if constexpr (O == Op::Sll) return a << (imm & 31);
    else if constexpr (O == Op::Sra) return static_cast<Word>(sa >> (imm & 31));
    else if constexpr (O == Op::Srl) return a >> (imm & 31);
    else if constexpr (O == Op::And) return a & b;
    else if constexpr (O == Op::Or) return a | b;
    else if constexpr (O == Op::Xor) return a ^ b;
    else if constexpr (O == Op::Li) return imm;
    else if constexpr (O == Op::FAdd)
        return floatToWord(wordToFloat(a) + wordToFloat(b));
    else if constexpr (O == Op::FSub)
        return floatToWord(wordToFloat(a) - wordToFloat(b));
    else if constexpr (O == Op::FMul)
        return floatToWord(wordToFloat(a) * wordToFloat(b));
    else if constexpr (O == Op::Beq) return a == b;
    else if constexpr (O == Op::Bne) return a != b;
    else if constexpr (O == Op::Blt) return sa < sb;
    else if constexpr (O == Op::Bge) return sa >= sb;
    else static_assert(O == Op::Add, "not a tile-local ALU op or branch");
}

/**
 * A tile's lw / sw of local SRAM byte @p addr: false, touching
 * nothing, when @p addr lies in global DRAM, and fatal past the SRAM.
 * @p end is RawMachine::sramEnd, so one test passes a local access.
 */
[[gnu::always_inline]] inline bool
sramLoad(unsigned t, const std::uint8_t *sram, Addr end, Addr addr,
         Word &v)
{
    if (addr + 4 > end) [[unlikely]] {
        if (addr >= globalBase)
            return false;
        tileFault(t, " lw outside SRAM @", addr);
    }
    std::memcpy(&v, sram + addr, 4);
    return true;
}

[[gnu::always_inline]] inline bool
sramStore(unsigned t, std::uint8_t *sram, Addr end, Addr addr, Word v)
{
    if (addr + 4 > end) [[unlikely]] {
        if (addr >= globalBase)
            return false;
        tileFault(t, " sw outside SRAM @", addr);
    }
    std::memcpy(sram + addr, &v, 4);
    return true;
}

/** @p op ends a block: a conditional branch or a jump. */
constexpr bool
branches(Op op)
{
    return op >= Op::Beq && op <= Op::Jump;
}

/** RawMachine::opLatency holds 8 bits. */
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
      wake(cfg.tiles(), kNever), ports(cfg.tiles()), lanes(cfg.tiles()),
      global(cfg.globalBytes), sendAhead(cfg.portRowBytes / 4),
      group("raw")
{
    const std::array<std::uint8_t, 4> byClass{
        latencyByte(cfg.intLatency), latencyByte(cfg.mulLatency),
        latencyByte(cfg.fpLatency), latencyByte(cfg.loadLatency)};
    for (std::size_t op = 0; op < std::size(formats); ++op)
        opLatency[op] = byClass[formats[op].lat];
    // Below globalBase an address is local: sramEnd ends both.
    sramEnd = std::min<Addr>(cfg.sramBytes, globalBase + 3);
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
    // An empty span's data() may be null, which memcpy must not get.
    if (!words.empty())
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
    if (!out.empty())
        std::memcpy(out.data(), global.data() + off, out.size() * 4);
}

inline RawMachine::Uop
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
    const auto byte = [](unsigned v) { return static_cast<std::uint8_t>(v); };
    return {byte(static_cast<unsigned>(in.op) | popRs << 5 | popRt << 6
                 | send << 7),
            byte(sink ? regSink : rd), byte(popRs ? 0 : rs),
            byte(popRt ? 0 : rt), in.imm};
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
    for (Instr &in : program) {
        const Uop u = decode(in);
        in = {static_cast<Op>(u.code), u.rdReg, u.rsReg, u.rtReg, u.imm};
    }
    c.program = std::move(program);
    // Programs that differ only in immediates other than branch
    // targets (a tile's share of the work, say) schedule alike; the
    // kernels load them tile after tile.
    const auto alike = [&c](const TileCold &o) {
        return o.program.size() == c.program.size()
               && std::equal(o.program.begin(), o.program.end(),
                             c.program.begin(),
                             [](const Instr &i, const Instr &j) {
                                 if (std::bit_cast<std::uint64_t>(i)
                                     == std::bit_cast<std::uint64_t>(j)) {
                                     return true;
                                 }
                                 const Uop x = uop(i), y = uop(j);
                                 return x.code == y.code
                                        && x.rdReg == y.rdReg
                                        && x.rsReg == y.rsReg
                                        && x.rtReg == y.rtReg
                                        && !branches(x.op());
                             });
    };
    c.blocks = nullptr;
    for (const TileCold &o : cold) {
        if (o.blocks != nullptr && alike(o)) {
            c.blocks = o.blocks;
            break;
        }
    }
    if (c.blocks == nullptr)
        c.blocks = buildBlocks(c.program);
    h.prog = c.program.data();
    h.progLen = static_cast<std::uint32_t>(c.program.size());
    h.pc = 0;
    h.halted = c.program.empty();
    if (h.halted)
        liveTileMask &= ~bitOf(tile);
    else
        liveTileMask |= bitOf(tile);
}

std::shared_ptr<const RawMachine::BlockTable>
RawMachine::buildBlocks(const std::vector<Instr> &prog) const
{
    const auto n = static_cast<std::uint32_t>(prog.size());
    const auto bit = [](unsigned r) { return std::uint32_t{1} << r; };
    // The registers that may hold a word loaded from memory or the
    // network, by a walk in program order. A load or store based on
    // one may reach global DRAM, which ends a value run, so it stays
    // out of blocks (a heuristic: such an op just runs op by op).
    std::uint32_t loaded = 0;
    const auto inBlock = [&loaded, &bit](Uop u) {
        return (u.code & (kOpBits | kPopBits)) < kStepOnly
               && !((u.op() == Op::Lw || u.op() == Op::Sw)
                    && (loaded & bit(u.rs())) != 0);
    };
    // A block starts at pc 0, at a branch target, after a branch, and
    // after an op a batch cannot run: a batch enters there once
    // stepTile has issued that op.
    std::vector<std::uint8_t> leader(n, 0);
    for (const Instr &slot : prog) {
        const Uop u = uop(slot);
        const auto target = static_cast<std::uint32_t>(u.imm);
        if (branches(u.op()) && target < n)
            leader[target] = 1;
    }

    // The program as units: each block, and each op between blocks.
    // A unit's uses are the registers it reads before writing them.
    struct Unit
    {
        std::uint32_t first, last;
        std::uint32_t uses = 0, writes = 0, liveIn = 0;
        std::uint32_t fall = ~0u, taken = ~0u;  //!< successor units
        bool block = false;
    };
    std::vector<Unit> units;
    for (std::uint32_t pc = 0; pc < n;) {
        Unit unit;
        unit.first = pc;
        unit.block = inBlock(uop(prog[pc]));
        for (;;) {
            const Uop u = uop(prog[pc++]);
            const std::uint32_t reads = bit(u.rs()) | bit(u.rt());
            unit.uses |= reads & ~unit.writes & ~1u;
            if (!u.send()) {
                unit.writes |= bit(u.rd());
                const bool load = u.op() == Op::Lw || u.op() == Op::Drecv
                                  || u.pops() != 0
                                  || (u.op() != Op::Li && (loaded & reads));
                loaded = load ? loaded | bit(u.rd()) : loaded & ~bit(u.rd());
            }
            if (!unit.block || branches(u.op()) || pc == n || leader[pc]
                || !inBlock(uop(prog[pc])) || pc - unit.first == kMaxBlockOps)
                break;
        }
        unit.last = pc - 1;
        units.push_back(unit);
    }
    for (std::size_t i = 0; i < units.size(); ++i) {
        Unit &unit = units[i];
        const Uop u = uop(prog[unit.last]);
        const auto target = static_cast<std::uint32_t>(u.imm);
        if (u.op() != Op::Jump && u.op() != Op::Halt && i + 1 < units.size())
            unit.fall = static_cast<std::uint32_t>(i + 1);
        if (branches(u.op()) && target < n) {
            unit.taken = static_cast<std::uint32_t>(
                std::ranges::lower_bound(units, target, {}, &Unit::first)
                - units.begin());
        }
    }

    // Liveness: the registers whose ready time some path from a
    // unit's exit reads before writing. Only operand reads read a
    // ready time, so a block writes back the ready times of these
    // alone. Units are visited backwards until nothing changes.
    const auto liveOut = [&units](const Unit &unit) {
        return (unit.fall != ~0u ? units[unit.fall].liveIn : 0)
               | (unit.taken != ~0u ? units[unit.taken].liveIn : 0);
    };
    for (bool changed = true; changed;) {
        changed = false;
        for (std::size_t i = units.size(); i-- > 0;) {
            Unit &unit = units[i];
            const std::uint32_t in =
                unit.uses | (liveOut(unit) & ~unit.writes);
            changed = changed || in != unit.liveIn;
            unit.liveIn = in;
        }
    }

    // Schedule each block in order with every live-in ready at entry:
    // ready offsets start at 0, so only in-block writes can stall.
    auto table = std::make_shared<BlockTable>();
    BlockTable &bt = *table;
    bt.entry.assign(n, 0);
    for (const Unit &unit : units) {
        if (!unit.block || bt.blocks.size() == 0xffff)
            continue;
        Block b;
        b.ops = unit.last + 1 - unit.first;
        b.win = static_cast<std::uint32_t>(bt.windows.size());
        b.send = static_cast<std::uint32_t>(bt.sendAt.size());
        std::array<std::uint32_t, numRegs> ready{}, first{};
        std::uint32_t seen = 0, cur = 0;
        for (std::uint32_t pc = unit.first; pc <= unit.last; ++pc, ++cur) {
            const Uop u = uop(prog[pc]);
            const std::uint32_t rdy = std::max(ready[u.rs()], ready[u.rt()]);
            if (rdy > cur) {
                bt.windows.push_back({cur, rdy - cur});
                b.depCycles += rdy - cur;
                cur = rdy;
            }
            // First reads, without data-dependent branches.
            const std::uint32_t fresh =
                (bit(u.rs()) | bit(u.rt())) & unit.uses & ~seen;
            first[u.rs()] = fresh & bit(u.rs()) ? cur : first[u.rs()];
            first[u.rt()] = fresh & bit(u.rt()) ? cur : first[u.rt()];
            seen |= fresh;
            if (u.send()) {
                bt.sendAt.push_back(cur);
                ++b.sends;
            } else {
                ready[u.rd()] = cur + opLatency[u.code & kOpBits];
            }
            b.fp += u.op() >= Op::FAdd && u.op() <= Op::FMul;
            b.ldst += u.op() == Op::Lw || u.op() == Op::Sw;
        }
        b.cycles = cur;
        b.wins = static_cast<std::uint32_t>(bt.windows.size()) - b.win;
        if (b.wins != 0) {
            b.winFirst = bt.windows[b.win].at;
            b.winEnd = bt.windows.back().at + bt.windows.back().len;
        }
        b.in = static_cast<std::uint32_t>(bt.regs.size());
        for (std::uint32_t m = unit.uses; m != 0; m &= m - 1) {
            const auto r = static_cast<unsigned>(std::countr_zero(m));
            bt.regs.push_back(first[r] << 5 | r);
        }
        b.ins = static_cast<std::uint32_t>(bt.regs.size()) - b.in;
        b.out = static_cast<std::uint32_t>(bt.regs.size());
        for (std::uint32_t m = unit.writes & liveOut(unit); m != 0;
             m &= m - 1) {
            const auto r = static_cast<unsigned>(std::countr_zero(m));
            bt.regs.push_back(ready[r] << 5 | r);
        }
        b.outs = static_cast<std::uint32_t>(bt.regs.size()) - b.out;
        // A block that branches to itself stays exact on the next
        // entry, `cycles` later, when each live-in it writes is ready
        // by its first use then; the others only grow older.
        const Uop last = uop(prog[unit.last]);
        b.loops = b.sends == 0 && branches(last.op())
                  && static_cast<std::uint32_t>(last.imm) == unit.first;
        for (std::uint32_t m = unit.uses & unit.writes; m != 0; m &= m - 1) {
            const auto r = static_cast<unsigned>(std::countr_zero(m));
            b.loops = b.loops && ready[r] <= b.cycles + first[r];
        }
        bt.blocks.push_back(b);
        bt.entry[unit.first] = static_cast<std::uint16_t>(bt.blocks.size());
    }
    return table;
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
RawMachine::checkSegment(Addr base, unsigned words) const
{
    // Checked arithmetic: the byte length is taken in 64 bits, so a
    // huge word count cannot wrap the test and let a port walk past
    // the mapping (ASan does not watch it, zero_buffer.hh).
    triarch_assert(base >= globalBase, "DMA below global base");
    const Addr off = base - globalBase;
    const std::uint64_t bytes = std::uint64_t{words} * 4;
    triarch_assert(off <= global.size() && bytes <= global.size() - off,
                   "DMA segment outside global DRAM");
}

void
RawMachine::dmaIn(unsigned port, unsigned dstTile, Addr base,
                  unsigned words)
{
    triarch_assert(port < ports.size() && dstTile < cfg.tiles(),
                   "bad port or tile");
    checkSegment(base, words);
    // A zero-word segment is a no-op. Queueing it would wedge the
    // port: stepPorts() only retires a segment after streaming a
    // word, so done (1, 2, ...) never equals words (0) and the run
    // loop spins forever waiting for the queue to drain.
    if (words == 0)
        return;
    hot[dstTile].dmaFed = true;
    ports[port].inQueue.segs.push_back({base - globalBase, words, dstTile});
    busyPortMask |= bitOf(port);
    ++portWork;
}

void
RawMachine::dmaOut(unsigned port, Addr base, unsigned words)
{
    triarch_assert(port < ports.size(), "bad port");
    checkSegment(base, words);
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
RawMachine::soloSend(Port &port, Word value, Cycles now)
{
    port.arrivals.emplace_back(now + cfg.netBaseLatency + 1, value);
}

void
RawMachine::soloSendCold(Port &port, Word value, Cycles now)
{
    soloSend(port, value, now);
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

inline Word
RawMachine::popWord(unsigned t, TileHot &tile, Cycles now)
{
    // The caller saw the word arrive, so now - arrival is its FIFO
    // residency. A lane records the pop: it frees the word's slot for
    // the word cap places later from the next cycle on.
    fifoWordCycles += now - tile.inFifo.front().first;
    const Word v = tile.inFifo.front().second;
    tile.inFifo.pop_front();
    if (tile.lane()) {
        Lane &ln = lanes[t];
        ln.free[ln.popped++ & laneMask] = now + 1;
    }
    return v;
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
        wake[t] = tile.stallUntil;
        return;
    }
    if (tile.pc >= tile.progLen)
        tileFault(t, " ran off its program at pc ", tile.pc);
    const Uop u = tile.op(tile.pc);

    // Network-input availability: each $csti operand pops one word.
    // A lane's port is not stepped: its words are pulled into the
    // FIFO here, with the cycles the port would have pushed them.
    const unsigned pops = u.pops();
    if (pops > 0) {
        if (tile.lane() && tile.inFifo.size() < pops)
            laneStage(t, pops);
        if (tile.inFifo.size() < pops
            || tile.inFifo[pops - 1].first > now) {
            tile.stallKind =
                tile.dmaFed ? TileStall::Dma : TileStall::Net;
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
    }

    // Dynamic-network receive availability.
    if (u.op() == Op::Drecv
        && (tile.dynFifo.empty() || tile.dynFifo.front().first > now)) {
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
        tile.stallKind = TileStall::Net;
        tallyStall(tile.stallKind, now);
        tile.stallUntil = now + 1;
        wake[t] = now + 1;
        return;
    }

    // A $csti operand pops its word, rs before rt.
    Word a = tile.regs[u.rs()];
    Word b = tile.regs[u.rt()];
    if (u.popRs())
        a = popWord(t, tile, now);
    if (u.popRt())
        b = popWord(t, tile, now);
    OpCounts counts;
    tile.pc = execute<false>(t, tile, u, tile.pc, now, a, b, counts);
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
            if (tile.lane())
                batchTile<true>(t, now + 1);
            else
                batchTile<false>(t, now + 1);
            return;
        }
    }

    // Next wake: immediately unless the retire scheduled a stall
    // window (cache-miss service, Dsend injection occupancy).
    wake[t] = tile.halted ? kNever : std::max(now + 1, tile.stallUntil);
}

template <bool Batch, bool OnLane>
inline unsigned
RawMachine::execute(unsigned t, TileHot &tile, const Uop u, unsigned pc,
                    Cycles now, const Word a, const Word b,
                    OpCounts &counts)
{
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
    Cycles lat = opLatency[u.code & kOpBits];
    unsigned next = pc + 1;
    switch (u.op()) {
      case Op::Nop:
        break;
      case Op::Add: v = local<Op::Add>(a, b, imm); break;
      case Op::Addi: v = local<Op::Addi>(a, b, imm); break;
      case Op::Sub: v = local<Op::Sub>(a, b, imm); break;
      case Op::Mul: v = local<Op::Mul>(a, b, imm); break;
      case Op::Sll: v = local<Op::Sll>(a, b, imm); break;
      case Op::Sra: v = local<Op::Sra>(a, b, imm); break;
      case Op::Srl: v = local<Op::Srl>(a, b, imm); break;
      case Op::And: v = local<Op::And>(a, b, imm); break;
      case Op::Or: v = local<Op::Or>(a, b, imm); break;
      case Op::Xor: v = local<Op::Xor>(a, b, imm); break;
      case Op::Li: v = local<Op::Li>(a, b, imm); break;
      case Op::FAdd:
        v = local<Op::FAdd>(a, b, imm);
        ++counts.fp;
        break;
      case Op::FSub:
        v = local<Op::FSub>(a, b, imm);
        ++counts.fp;
        break;
      case Op::FMul:
        v = local<Op::FMul>(a, b, imm);
        ++counts.fp;
        break;
      case Op::Lw: {
        // Global DRAM is shared with the other tiles and the ports,
        // and the cache bills it, so a batch declines it untouched.
        // Lazy drains due by `now` land first, as the stepped ports
        // would have written them before the tiles step.
        const Addr addr = a + imm;
        if (addr >= globalBase) {
            if constexpr (Batch)
                return kDeclined;
            const Addr off = addr - globalBase;
            if (off + 4 > global.size())
                tileFault(t, " lw outside global DRAM @", addr);
            if (drainMask != 0)
                settleAll(now);
            std::memcpy(&v, global.data() + off, 4);
            lat += billCache(addr, false);
        } else {
            sramLoad(t, tile.sram, sramEnd, addr, v);
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
            // The hull test admits every word whose bytes could touch
            // a source; checkSourceStore decides.
            if (off + 3 - srcLo < srcSpan + 3)
                checkSourceStore(t, off);
            if (drainMask != 0)
                settleAll(now);
            std::memcpy(global.data() + off, &b, 4);
            billCache(addr, true);
        } else {
            sramStore(t, tile.sram, sramEnd, addr, b);
        }
        ++counts.ldst;
        break;
      }
      case Op::Beq: next = local<Op::Beq>(a, b, imm) ? imm : next; break;
      case Op::Bne: next = local<Op::Bne>(a, b, imm) ? imm : next; break;
      case Op::Blt: next = local<Op::Blt>(a, b, imm) ? imm : next; break;
      case Op::Bge: next = local<Op::Bge>(a, b, imm) ? imm : next; break;
      case Op::Jump:
        next = imm;
        break;
      case Op::Halt:
        tile.halted = true;
        cold[t].haltCycle = now;
        liveTileMask &= ~bitOf(t);
        if constexpr (!Batch) {
            if (tile.lane())
                laneFlush(t, now);
        }
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
      default:
        // decode() admits no other opcode.
        __builtin_unreachable();
    }

    if (u.send()) {
        // An unbatched send to a port settles the port's lazy drains
        // once its queue reaches the batches' run-ahead bound, so
        // shared ports keep a bounded queue too.
        if constexpr (Batch) {
            // A batch sends only to the tile's solo port.
            if constexpr (OnLane)
                soloSend(*tile.soloPort, v, now);
            else
                soloSendCold(*tile.soloPort, v, now);
            ++counts.sends;
        } else {
            const unsigned p = tile.route - 1000;
            if (drainMask != 0 && p < ports.size()
                && ports[p].arrivals.size() >= sendAhead) {
                settle(p, now);
            }
            send(t, v, now);
        }
    } else {
        tile.regs[u.rd()] = v;
        tile.ready[u.rd()] = now + lat;
    }
    return next;
}

inline bool
RawMachine::canBatch(const TileHot &tile, const Uop u) const
{
    return (u.code & tile.batchMask) < kStepOnly
           && (!u.send() || tile.soloPort != nullptr);
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

template <bool Sends>
inline bool
RawMachine::runValues(unsigned t, TileHot &tile, unsigned &pc,
                      const unsigned end, const std::uint32_t *sendAt,
                      const Cycles at)
{
    // Locals, as in batchTile: SRAM stores go through a byte pointer.
    const Instr *const prog = tile.prog;
    const Instr *op = prog + pc;
    const Instr *const stop = prog + end;
    Word *const reg = tile.regs.data();
    std::uint8_t *const sram = tile.sram;
    const Addr localEnd = sramEnd;
    constexpr auto code = [](Op o) { return static_cast<unsigned>(o); };
    // Only a block's last op branches.
    unsigned next = end;
    do {
        const Uop u = uop(*op);
        const Word a = reg[u.rs()];
        const Word b = reg[u.rt()];
        const auto imm = static_cast<std::uint32_t>(u.imm);
        switch (u.code) {
          case code(Op::Nop): continue;
          case code(Op::Add): reg[u.rd()] = local<Op::Add>(a, b, imm); continue;
          case code(Op::Addi): reg[u.rd()] = local<Op::Addi>(a, b, imm); continue;
          case code(Op::Sub): reg[u.rd()] = local<Op::Sub>(a, b, imm); continue;
          case code(Op::Mul): reg[u.rd()] = local<Op::Mul>(a, b, imm); continue;
          case code(Op::Sll): reg[u.rd()] = local<Op::Sll>(a, b, imm); continue;
          case code(Op::Sra): reg[u.rd()] = local<Op::Sra>(a, b, imm); continue;
          case code(Op::Srl): reg[u.rd()] = local<Op::Srl>(a, b, imm); continue;
          case code(Op::And): reg[u.rd()] = local<Op::And>(a, b, imm); continue;
          case code(Op::Or): reg[u.rd()] = local<Op::Or>(a, b, imm); continue;
          case code(Op::Xor): reg[u.rd()] = local<Op::Xor>(a, b, imm); continue;
          case code(Op::Li): reg[u.rd()] = local<Op::Li>(a, b, imm); continue;
          case code(Op::FAdd): reg[u.rd()] = local<Op::FAdd>(a, b, imm); continue;
          case code(Op::FSub): reg[u.rd()] = local<Op::FSub>(a, b, imm); continue;
          case code(Op::FMul): reg[u.rd()] = local<Op::FMul>(a, b, imm); continue;
          case code(Op::Lw):
            if (!sramLoad(t, sram, localEnd, a + imm, reg[u.rd()]))
                break;
            continue;
          case code(Op::Sw):
            if (!sramStore(t, sram, localEnd, a + imm, b))
                break;
            continue;
          case code(Op::Beq): next = local<Op::Beq>(a, b, imm) ? imm : end; continue;
          case code(Op::Bne): next = local<Op::Bne>(a, b, imm) ? imm : end; continue;
          case code(Op::Blt): next = local<Op::Blt>(a, b, imm) ? imm : end; continue;
          case code(Op::Bge): next = local<Op::Bge>(a, b, imm) ? imm : end; continue;
          case code(Op::Jump): next = imm; continue;
          default:
            if constexpr (Sends) {
                // A send, issued at its offset in the schedule (its
                // counts come from the block).
                OpCounts none;
                const auto opPc = static_cast<unsigned>(op - prog);
                if (execute<true>(t, tile, u, opPc, at + *sendAt, a, b,
                                  none)
                    == kDeclined) {
                    break;
                }
                ++sendAt;
                continue;
            } else {
                // A block without sends holds only the codes above.
                __builtin_unreachable();
            }
        }
        // A load or store reached global DRAM.
        pc = static_cast<unsigned>(op - prog);
        return false;
    } while (++op != stop);
    pc = next;
    return true;
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
 * the queue may grow. Lazy drains are settled by stepTile's sends at
 * the event loop's `now`, never by a batch: a drain writes DRAM that
 * tiles at earlier cycles may still read. The batch therefore
 * commutes with the rest of the cycle interleaving, and every counter lands on the value the
 * cycle-at-a-time reference accrues: busy cycles are the retired
 * instruction count, and operand-latency gaps add to tcDep in bulk
 * with one dep_stalls event each, like the reference's stall entry
 * plus its per-cycle stallUntil re-polls.
 *
 * An OnLane batch also pops $csti. Its port feeds no other tile and no
 * tile feeds it, so the port's pushes depend only on the port and on
 * this tile's own pops: word j is pushed at
 * q_j = max(inFree, pop(j - cap) + 1) and arrives L + 1 cycles
 * later. pull() evaluates that in locals, word by word; the sources
 * cannot change during the run (DESIGN D12), so reading them early
 * reads what the port would. The wait for the last word is credited
 * to the DMA tallies before the operand wait, in the reference's
 * per-cycle order.
 *
 * Any other batch that reaches the start of a block (buildBlocks)
 * runs the block's values through execute() with no timing, then
 * applies its schedule: the cursor, the live-outs' ready times, the
 * dep tallies and each stall window. The schedule assumed every
 * live-in ready at entry; it is exact when each live-in r has
 * ready[r] <= cursor + firstUse[r], because then no read waits on it
 * and every issue cycle is the one the scoreboard gives. Otherwise
 * (and on entry mid-block) the ops run one at a time as above, with
 * the same result. A load or store that reaches global DRAM inside a
 * block stops the value run there; the ops before it then take their
 * timing one at a time, and it meets the per-op path.
 *
 * The batch breaks BEFORE any other externally visible op: sends to
 * tiles or shared ports, dynamic-network ops, halt, loads/stores that
 * reach global DRAM, and pops it cannot serve (off a lane, past the
 * stream's end, two pops into a one-word FIFO). That op issues
 * through stepTile at the cursor cycle, so tiles leave the live set
 * only at the event loop's `now`.
 */
template <bool OnLane>
void
RawMachine::batchTile(unsigned t, Cycles cur)
{
    TileHot &tile = hot[t];
    // The loop state lives in locals: SRAM stores go through a byte
    // pointer, which would otherwise force every op to reload it.
    const Instr *const prog = tile.prog;
    const std::uint32_t len = tile.progLen;
    const BlockTable &blocks = *cold[t].blocks;
    const std::uint16_t *const entries = blocks.entry.data();
    const Block *const blockAt = blocks.blocks.data();
    const RegAt *const regAt = blocks.regs.data();
    const Window *const windows = blocks.windows.data();
    const std::uint32_t *const sendAts = blocks.sendAt.data();
    Port *const port = tile.soloPort;
    const Cycles limit = cfg.maxCycles;
    unsigned pc = tile.pc;
    const Cycles start = cur;
    std::uint64_t depCycles = 0, depEvents = 0;
    OpCounts counts;
    // Lane state: the port's cursor, the DMA wait and the popped
    // words' FIFO residency.
    LaneCursor lane;
    std::uint64_t dmaCycles = 0, residency = 0;
    if constexpr (OnLane)
        lane = laneCursor(t);
    // The batch may queue sendAhead words at its port beyond what is
    // there now: a port that drains slower than its sender holds a
    // backlog in the reference too, and the bound must not stop the
    // batch at every send then.
    if (port != nullptr)
        port->sendLimit = port->arrivals.size() + sendAhead;
    // The scoreboard is the first stall test an op meets, so its
    // operand wait is tile-private and accrues here even when the op
    // itself must then issue through stepTile.
    const auto awaitOperands = [&](Uop u) {
        const Cycles rdy = std::max(tile.ready[u.rs()], tile.ready[u.rt()]);
        if (rdy > cur) {
            depCycles += rdy - cur;
            ++depEvents;
            hwSamp.addRange(0, cur, rdy);
            cur = rdy;
        }
    };
    while (cur <= limit) {
        if (pc >= len)
            tileFault(t, " ran off its program at pc ", pc);
        if constexpr (!OnLane) {
            // A block entered at its start runs whole, values first
            // and then its schedule, when the schedule is exact here:
            // no live-in is ready later than its first use, and the
            // block fits under the cycle cap and the send bound.
            if (const unsigned entry = entries[pc]; entry != 0) {
                const Block &blk = blockAt[entry - 1];
                bool exact = cur + blk.cycles <= limit
                             && (blk.sends == 0
                                 || (port != nullptr
                                     && port->arrivals.size() + blk.sends
                                            <= port->sendLimit));
                const RegAt *const in = regAt + blk.in;
                for (std::uint32_t i = 0; exact && i < blk.ins; ++i)
                    exact = tile.ready[in[i] & 31] <= cur + (in[i] >> 5);
                if (exact) {
                    // A block that loops to itself with its schedule
                    // still exact (Block::loops) runs again at once.
                    unsigned begin;
                    bool done;
                    do {
                        begin = pc;
                        const std::uint32_t *sendAt = sendAts + blk.send;
                        done = blk.sends == 0
                                   ? runValues<false>(t, tile, pc,
                                                      pc + blk.ops, sendAt,
                                                      cur)
                                   : runValues<true>(t, tile, pc,
                                                     pc + blk.ops, sendAt,
                                                     cur);
                        if (!done)
                            break;
                        const RegAt *const out = regAt + blk.out;
                        for (std::uint32_t i = 0; i < blk.outs; ++i)
                            tile.ready[out[i] & 31] = cur + (out[i] >> 5);
                        // The windows in one epoch are one addition.
                        if (blk.wins != 0
                            && !hwSamp.addWithin(0, cur + blk.winFirst,
                                                 cur + blk.winEnd,
                                                 blk.depCycles)) {
                            const Window *w = windows + blk.win;
                            for (std::uint32_t i = 0; i < blk.wins; ++i)
                                hwSamp.addRange(0, cur + w[i].at,
                                                cur + w[i].at + w[i].len);
                        }
                        depCycles += blk.depCycles;
                        depEvents += blk.wins;
                        counts.fp += blk.fp;
                        counts.ldst += blk.ldst;
                        counts.sends += blk.sends;
                        cur += blk.cycles;
                    } while (pc == begin && blk.loops
                             && cur + blk.cycles <= limit);
                    if (done)
                        continue;
                    // A load or store reached global DRAM. The values
                    // before it ran; their timing and counts are
                    // applied op by op, and the op itself meets the
                    // per-op path below.
                    for (unsigned q = begin; q < pc; ++q) {
                        const Uop u = uop(prog[q]);
                        awaitOperands(u);
                        if (u.send())
                            ++counts.sends;
                        else
                            tile.ready[u.rd()] =
                                cur + opLatency[u.code & kOpBits];
                        counts.fp += u.op() >= Op::FAdd && u.op() <= Op::FMul;
                        counts.ldst += u.op() == Op::Lw || u.op() == Op::Sw;
                        ++cur;
                    }
                }
            }
        }
        const Uop u = uop(prog[pc]);
        // canBatch(), with this instantiation's mask.
        if ((u.code & (OnLane ? kOpBits : kOpBits | kPopBits)) >= kStepOnly
            || (u.send() && port == nullptr)) {
            break;
        }
        Word w0 = 0, w1 = 0;
        Cycles arr0 = 0, arr1 = 0;
        if constexpr (OnLane) {
            const unsigned pops = u.pops();
            if (pops != 0) {
                // Every reason to stop comes before the first pull.
                if ((u.op() == Op::Lw || u.op() == Op::Sw)
                    && (u.popRs() || reachesGlobal(tile, u))) {
                    break;
                }
                if (pops > cfg.fifoCapacity || lane.left < pops)
                    break;
                if (u.send() && port->arrivals.size() >= port->sendLimit)
                    break;
                arr0 = pull(lane, w0);
                arr1 = pops == 2 ? pull(lane, w1) : arr0;
                if (arr1 > cur) {
                    dmaCycles += arr1 - cur;
                    hwSamp.addRange(3, cur, arr1);
                    cur = arr1;
                }
            }
        }
        awaitOperands(u);
        if (u.send() && port->arrivals.size() >= port->sendLimit)
            break;
        Word a = tile.regs[u.rs()];
        Word b = tile.regs[u.rt()];
        if constexpr (OnLane) {
            if (u.popRs()) {
                a = w0;
                b = u.popRt() ? w1 : b;
            } else if (u.popRt()) {
                b = w0;
            }
        }
        const unsigned next =
            execute<true, OnLane>(t, tile, u, pc, cur, a, b, counts);
        if (next == kDeclined)
            break;
        if constexpr (OnLane) {
            // Record the pops: each frees its word's FIFO slot.
            const unsigned pops = u.pops();
            if (pops != 0) {
                lane.ring[(lane.next - pops) & lane.mask] = cur + 1;
                residency += cur - arr0;
                if (pops == 2) {
                    lane.ring[(lane.next - 1) & lane.mask] = cur + 1;
                    residency += cur - arr1;
                }
            }
        }
        pc = next;
        ++cur;
    }
    // Every cycle of [start, cur) retired an op or was a wait.
    tile.pc = pc;
    tile.instrs += cur - start - depCycles - dmaCycles;
    tcDep += depCycles;
    _depStalls += depEvents;
    _fpops += counts.fp;
    _ldst += counts.ldst;
    portWork += counts.sends;
    if constexpr (OnLane) {
        // Nothing is left staged: every pulled word was popped.
        lanes[t].popped = lane.next;
        laneStore(t, lane);
        tcDma += dmaCycles;
        fifoWordCycles += residency;
    }
    // The op at `pc` issues at `cur` through the normal path; every
    // cycle below `cur` is accounted (busy via the per-tile retire
    // count, waits via tcDep and tcDma).
    tile.talliedThrough = cur;
    wake[t] = cur;
}

RawMachine::LaneCursor
RawMachine::laneCursor(unsigned t)
{
    Lane &ln = lanes[t];
    const Port &port = *ln.port;
    LaneCursor c;
    c.left = ln.left;
    c.next = ln.popped + hot[t].inFifo.size();
    c.inFree = port.inFree;
    c.lastRow = port.inLastRow;
    if (!port.inQueue.empty()) {
        const DmaSegment &seg = port.inQueue.front();
        c.addr = seg.base + Addr{seg.done} * 4;
        c.segLeft = seg.words - seg.done;
    }
    c.lane = &ln;
    c.ring = ln.free.data();
    c.mask = laneMask;
    c.cap = cfg.fifoCapacity;
    c.dram = global.data();
    c.rowShift = portRowShift;
    c.rowPenalty = cfg.portRowMissPenalty;
    c.hop = cfg.netBaseLatency + 1;
    return c;
}

void
RawMachine::laneStore(unsigned t, const LaneCursor c)
{
    Lane &ln = lanes[t];
    Port &port = *ln.port;
    port.inFree = c.inFree;
    port.inLastRow = c.lastRow;
    if (!port.inQueue.empty()) {
        DmaSegment &seg = port.inQueue.front();
        seg.done = seg.words - c.segLeft;
    }
    _wordsDmaIn += ln.left - c.left;
    ln.left = c.left;
}

inline Cycles
RawMachine::pull(LaneCursor &c, Word &v)
{
    // The port pushes word `next` once it is free and the FIFO has a
    // slot for it, which the pop of word next - cap frees.
    const Cycles q =
        std::max(c.inFree, c.ring[(c.next - c.cap) & c.mask]);
    std::memcpy(&v, c.dram + c.addr, 4);
    Cycles cost = 1;
    const Addr row = c.addr >> c.rowShift;
    if (row != c.lastRow) {
        cost += c.rowPenalty;
        c.lastRow = row;
    }
    c.inFree = q + cost;
    c.addr += 4;
    ++c.next;
    --c.left;
    if (--c.segLeft == 0)
        std::tie(c.addr, c.segLeft) = laneNextSegment(*c.lane);
    return q + c.hop;
}

std::pair<Addr, unsigned>
RawMachine::laneNextSegment(const Lane &ln)
{
    InQueue &queue = ln.port->inQueue;
    queue.pop_front();
    --portWork;
    if (queue.empty())
        return {0, 0};
    const DmaSegment &seg = queue.front();
    return {seg.base + Addr{seg.done} * 4, seg.words - seg.done};
}

void
RawMachine::laneStage(unsigned t, unsigned pops)
{
    // Word next = popped + staged needs the pop of word next - cap,
    // which has happened while fewer than cap words are staged.
    TileHot &tile = hot[t];
    LaneCursor c = laneCursor(t);
    while (tile.inFifo.size() < pops
           && tile.inFifo.size() < cfg.fifoCapacity && c.left != 0) {
        Word v = 0;
        const Cycles arrival = pull(c, v);
        tile.inFifo.emplace_back(arrival, v);
    }
    laneStore(t, c);
}

void
RawMachine::laneFlush(unsigned t, Cycles now)
{
    // The stepped port would have pushed on until `now` while the
    // FIFO had room; those words sit in the FIFO of the halted tile
    // (the run's residual FIFO residency counts them). From now + 1
    // the port steps again, so a stream left over keeps the
    // reference's final cycle, or its deadlock.
    TileHot &tile = hot[t];
    Lane &ln = lanes[t];
    LaneCursor c = laneCursor(t);
    while (c.left != 0 && tile.inFifo.size() < cfg.fifoCapacity
           && std::max(c.inFree,
                       ln.free[(c.next - cfg.fifoCapacity) & laneMask])
                  <= now) {
        Word v = 0;
        const Cycles arrival = pull(c, v);
        tile.inFifo.emplace_back(arrival, v);
    }
    laneStore(t, c);
    tile.batchMask = kOpBits | kPopBits;
    if (!ln.port->inQueue.empty())
        busyPortMask |= bitOf(static_cast<unsigned>(ln.port - ports.data()));
    ln.port = nullptr;
}

inline void
RawMachine::drainOne(Port &port, Cycles now)
{
    DmaSegment &seg = port.outQueue.front();
    const Word v = port.arrivals.front().second;
    port.arrivals.pop_front();
    --portWork;
    const Addr a = seg.base + static_cast<Addr>(seg.done) * 4;
    std::memcpy(global.data() + a, &v, 4);
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

inline void
RawMachine::stepPort(Port &port, Cycles now)
{
    // DMA in: stream one word per cycle into the tile FIFO.
    if (!port.inQueue.empty() && port.inFree <= now) {
        DmaSegment &seg = port.inQueue.front();
        TileHot &dst = hot[seg.dstTile];
        if (dst.inFifo.size() < cfg.fifoCapacity) {
            const Addr a = seg.base + static_cast<Addr>(seg.done) * 4;
            Word v = 0;
            std::memcpy(&v, global.data() + a, 4);
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

    // DMA out: drain one arrived word per cycle to memory, unless
    // this run drains lazily.
    if (!streams && !port.outQueue.empty() && port.outFree <= now
        && !port.arrivals.empty()
        && port.arrivals.front().first <= now) {
        drainOne(port, now);
    }
}

Cycles
RawMachine::settle(unsigned p, Cycles upTo)
{
    Port &port = ports[p];
    Cycles end = 0;
    while (!port.outQueue.empty() && !port.arrivals.empty()) {
        const Cycles d =
            std::max(port.outFree, port.arrivals.front().first);
        if (d > upTo)
            return end;
        drainOne(port, d);
        end = d + 1;
    }
    if (port.outQueue.empty())
        drainMask &= ~bitOf(p);
    return end;
}

void
RawMachine::settleAll(Cycles upTo)
{
    for (std::uint64_t m = drainMask; m != 0;)
        settle(popLowBit(m), upTo);
}

void
RawMachine::checkSourceStore(unsigned t, Addr off)
{
    if (srcRanges.empty()) {
        for (const Port &port : ports) {
            for (const DmaSegment &seg : port.inQueue.segs)
                srcRanges.emplace_back(seg.base,
                                       seg.base + Addr{seg.words} * 4);
        }
        std::sort(srcRanges.begin(), srcRanges.end());
        std::size_t n = 0;
        for (const auto &r : srcRanges) {
            if (n != 0 && r.first <= srcRanges[n - 1].second)
                srcRanges[n - 1].second =
                    std::max(srcRanges[n - 1].second, r.second);
            else
                srcRanges[n++] = r;
        }
        srcRanges.resize(n);
    }
    // The last source starting below the word's end is the only one
    // that can overlap it: the merged ranges are disjoint.
    const auto it = std::upper_bound(
        srcRanges.begin(), srcRanges.end(), off + 3,
        [](Addr v, const std::pair<Addr, Addr> &r) { return v < r.first; });
    if (it != srcRanges.begin() && std::prev(it)->second > off)
        tileFault(t, " sw into a DMA-in source during the run @",
                  globalBase + off);
}

inline void
RawMachine::stepPorts(Cycles now)
{
    // Ports with no queued segment cannot act (arrivals wait for an
    // out segment), so only the busy ones step, in port order. Under
    // lazy drains a port steps only for its DMA-in half.
    for (std::uint64_t m = busyPortMask; m != 0;) {
        const unsigned p = popLowBit(m);
        Port &port = ports[p];
        stepPort(port, now);
        if (port.inQueue.empty() && (streams || port.outQueue.empty()))
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
    // already bumped when the stall began. The epoch samples land on
    // the same cycles the reference loop's per-cycle tallies would.
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
        break;
      case TileStall::Dma:
        tcDma += delta;
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
        if (!streams && !port.outQueue.empty()
            && !port.arrivals.empty()) {
            next = std::min(
                next, std::max({port.outFree,
                                port.arrivals.front().first, from}));
        }
        if (next <= from)
            return from;
    }
    return next;
}

bool
RawMachine::streamsExact() const
{
    // Each port's DMA-out segments: their hull, and whether they come
    // in ascending address order without overlapping.
    struct Hull
    {
        Addr lo = ~Addr{0}, hi = 0;
        bool sorted = true;
    };
    std::array<Hull, 64> hulls;
    Addr outLo = ~Addr{0}, outHi = 0;
    unsigned outPorts = 0;
    bool sorted = true;
    for (unsigned p = 0; p < ports.size(); ++p) {
        const RingQueue<DmaSegment> &q = ports[p].outQueue;
        Hull &h = hulls[outPorts];
        for (std::size_t i = 0; i < q.size(); ++i) {
            const Addr lo = q[i].base + Addr{q[i].done} * 4;
            if (i != 0 && q[i - 1].base + Addr{q[i - 1].words} * 4 > lo)
                sorted = false;
            h.lo = std::min(h.lo, lo);
            h.hi = std::max(h.hi, q[i].base + Addr{q[i].words} * 4);
        }
        if (!q.empty()) {
            outLo = std::min(outLo, h.lo);
            outHi = std::max(outHi, h.hi);
            ++outPorts;
        }
    }
    // A DMA-in source that a DMA-out port writes would be read by a
    // lane before the port writes it; tested on the hulls, so an
    // interleaving that only looks like one also steps.
    if (srcSpan != 0 && outLo < outHi && outLo < srcLo + srcSpan
        && srcLo < outHi) {
        return false;
    }
    // Lazy drains settle port by port, so two ports writing one word
    // could land in the wrong order. Ports with disjoint hulls cannot.
    std::sort(hulls.begin(), hulls.begin() + outPorts,
              [](const Hull &a, const Hull &b) { return a.lo < b.lo; });
    bool disjoint = true;
    for (unsigned i = 1; i < outPorts; ++i)
        disjoint = disjoint && hulls[i - 1].hi <= hulls[i].lo;
    if (disjoint)
        return true;
    // Otherwise merge the ports' lists by address (each must be
    // ascending and disjoint) and require every segment to start at
    // or after the end of all segments before it.
    if (!sorted)
        return false;
    std::array<std::size_t, 64> at{};
    std::array<std::pair<Addr, unsigned>, 64> heap;
    std::size_t n = 0;
    for (unsigned p = 0; p < ports.size(); ++p) {
        if (!ports[p].outQueue.empty())
            heap[n++] = {ports[p].outQueue[0].base, p};
    }
    const auto later = std::greater<std::pair<Addr, unsigned>>();
    std::make_heap(heap.begin(), heap.begin() + n, later);
    Addr maxEnd = 0;
    while (n != 0) {
        std::pop_heap(heap.begin(), heap.begin() + n, later);
        const unsigned p = heap[n - 1].second;
        const RingQueue<DmaSegment> &q = ports[p].outQueue;
        const DmaSegment &seg = q[at[p]++];
        if (seg.base + Addr{seg.done} * 4 < maxEnd)
            return false;
        maxEnd = std::max(maxEnd, seg.base + Addr{seg.words} * 4);
        if (at[p] < q.size()) {
            heap[n - 1] = {q[at[p]].base, p};
            std::push_heap(heap.begin(), heap.begin() + n, later);
        } else {
            --n;
        }
    }
    return true;
}

void
RawMachine::openStreams()
{
    streams = streamsExact();
    if (!streams)
        return;
    const unsigned n = static_cast<unsigned>(ports.size());
    // The tiles each port feeds, and the tiles some tile routes to.
    std::array<std::uint64_t, 64> feeds{};
    std::uint64_t routed = 0;
    for (const TileHot &h : hot) {
        if (h.route < cfg.tiles())
            routed |= bitOf(h.route);
    }
    busyPortMask = 0;
    drainMask = 0;
    for (unsigned p = 0; p < n; ++p) {
        const InQueue &q = ports[p].inQueue;
        for (std::size_t i = q.head; i < q.segs.size(); ++i)
            feeds[p] |= bitOf(q.segs[i].dstTile);
        if (!q.empty())
            busyPortMask |= bitOf(p);
        if (!ports[p].outQueue.empty())
            drainMask |= bitOf(p);
    }
    const std::size_t slots = std::bit_ceil(std::max(cfg.fifoCapacity, 1u));
    laneMask = slots - 1;
    // A lane: one port feeds the live tile, that port feeds nothing
    // else, no tile routes to it and its FIFO starts empty.
    for (unsigned p = 0; p < n; ++p) {
        if (!std::has_single_bit(feeds[p]))
            continue;
        const unsigned t =
            static_cast<unsigned>(std::countr_zero(feeds[p]));
        TileHot &tile = hot[t];
        unsigned feeders = 0;
        for (unsigned q = 0; q < n; ++q)
            feeders += (feeds[q] >> t) & 1;
        if (feeders != 1 || (routed & bitOf(t)) != 0
            || (liveTileMask & bitOf(t)) == 0 || !tile.inFifo.empty()
            || cfg.fifoCapacity == 0) {
            continue;
        }
        const InQueue &q = ports[p].inQueue;
        std::uint64_t words = 0;
        for (std::size_t i = q.head; i < q.segs.size(); ++i)
            words += q.segs[i].words - q.segs[i].done;
        Lane &ln = lanes[t];
        ln.free.assign(slots, 0);
        ln.port = &ports[p];
        ln.popped = 0;
        ln.left = words;
        tile.batchMask = kOpBits;
        busyPortMask &= ~bitOf(p);
    }
}

Cycles
RawMachine::runEvent()
{
    // Re-arm the scheduler state (a machine can run more than once):
    // tallies restart at cycle 0 (run() has cleared the cycle stamps
    // the previous run left).
    for (unsigned t = 0; t < cfg.tiles(); ++t) {
        hot[t].talliedThrough = 0;
        hot[t].waitPops = 0;
        hot[t].waitDyn = false;
        wake[t] = hot[t].halted ? kNever : 0;
    }
    if (batching)
        openStreams();

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
        // Lazy drains have no events: once the tiles and the stepped
        // ports are done, they settle below.
        if (liveTileMask == 0 && (streams ? busyPortMask : portWork) == 0)
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

    if (streams) {
        // Run end settles every drain; the run lasts until the last
        // one, and a word or segment left unmatched is the
        // reference's endless wait.
        for (std::uint64_t m = drainMask; m != 0;)
            now = std::max(now, settle(popLowBit(m), kNever));
        if (portWork != 0 || now > cfg.maxCycles) {
            triarch_fatal("Raw simulation exceeded ", cfg.maxCycles,
                          " cycles — deadlock or runaway program");
        }
        streams = false;
        for (unsigned t = 0; t < cfg.tiles(); ++t) {
            lanes[t].port = nullptr;
            hot[t].batchMask = kOpBits | kPopBits;
        }
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
    // Every run counts from cycle 0, so nothing stamped in an earlier
    // run's cycles carries over: stall windows, scoreboard ready
    // times, the ports' free cycles, the arrival of words left in a
    // FIFO. (A batch absorbs its waits without opening a stall window,
    // so a carried window would also differ from the witness's.)
    for (TileHot &tile : hot) {
        tile.stallUntil = 0;
        tile.ready.fill(0);
        for (std::size_t i = 0; i < tile.inFifo.size(); ++i)
            tile.inFifo[i].first = 0;
        for (std::size_t i = 0; i < tile.dynFifo.size(); ++i)
            tile.dynFifo[i].first = 0;
    }
    for (Port &port : ports)
        port.inFree = port.outFree = 0;

    // During the run a DMA-in source belongs to its stream (D12):
    // execute() checks every global sw against the sources' hull.
    Addr lo = ~Addr{0}, hi = 0;
    for (const Port &port : ports) {
        for (const DmaSegment &seg : port.inQueue.segs) {
            lo = std::min(lo, seg.base);
            hi = std::max(hi, seg.base + Addr{seg.words} * 4);
        }
    }
    srcLo = lo < hi ? lo : 0;
    srcSpan = lo < hi ? hi - lo : 0;
    srcRanges.clear();

    const Cycles now = loop();
    _cycles.set(now);
    for (Port &port : ports)
        port.inQueue = {};
    srcLo = srcSpan = 0;
    srcRanges.clear();

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

    // net_stalls counts network- and DMA-stalled tile-cycles, which
    // are exactly those two tallies (cumulative across runs, as the
    // scalar is).
    _netStalls.set(tcNet + tcDma);
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
