/**
 * @file
 * Differential tests for the event-driven Raw stepper. The event
 * scheduler (wake times, bulk stall credit, tile-local instruction
 * batching) is an optimization of the cycle-by-cycle interpreter,
 * never a semantic change: every program and every Raw kernel on the
 * paper, boundary and sweep configs must produce bit-identical cycle
 * counts, stall tallies, statistics, hw cells and outputs on
 * RawMachine and on its cycle-at-a-time witness, ReferenceRawMachine
 * (raw_reference.hh).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "kernels/corner_turn.hh"
#include "raw/assembler.hh"
#include "raw/kernels_raw.hh"
#include "raw/machine.hh"
#include "raw_reference.hh"
#include "sim/bitutil.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "study/config_check.hh"
#include "study/experiment.hh"
#include "study/fuzz.hh"

namespace triarch::raw
{
namespace
{

/** Global-memory words a test reads back after run(). */
using Readback = std::function<std::vector<Word>(const RawMachine &)>;

/** Set up a workload on a machine and run it; returns the cycles. */
using Drive = std::function<Cycles(RawMachine &)>;

/** The rendered stat group of @p m (every scalar, the tile-share
 *  distribution and the account_* breakdown). */
std::string
statsText(RawMachine &m)
{
    std::ostringstream os;
    m.statGroup().dump(os);
    return os.str();
}

/**
 * Drive the same workload on the reference witness and on the
 * production (event-stepped) machine and require every observable —
 * cycle count, scalar stats, the six per-tile-cycle tallies,
 * per-tile instruction/idle figures, the hw report (breakdown,
 * metrics, verdict, epoch timeline), the rendered stat group, and
 * the optional @p readback words — to match exactly. @p drive
 * returns the total the breakdown and hw cell are taken against.
 */
void
expectRunsAgree(const Drive &drive, RawConfig base = RawConfig{},
                const Readback &readback = {})
{
    ReferenceRawMachine ref(base);
    RawMachine evt(base);
    const Cycles refCycles = drive(ref);
    const Cycles evtCycles = drive(evt);
    EXPECT_EQ(refCycles, evtCycles);

    EXPECT_EQ(ref.instructions(), evt.instructions());
    EXPECT_EQ(ref.netStalls(), evt.netStalls());
    EXPECT_EQ(ref.depStalls(), evt.depStalls());
    EXPECT_EQ(ref.cacheStallCycles(), evt.cacheStallCycles());
    EXPECT_EQ(ref.loadStores(), evt.loadStores());
    EXPECT_EQ(ref.fpOps(), evt.fpOps());

    const auto a = ref.stallTallies();
    const auto b = evt.stallTallies();
    EXPECT_EQ(a.busy, b.busy);
    EXPECT_EQ(a.dep, b.dep);
    EXPECT_EQ(a.cache, b.cache);
    EXPECT_EQ(a.net, b.net);
    EXPECT_EQ(a.dma, b.dma);
    EXPECT_EQ(a.idle, b.idle);

    for (unsigned t = 0; t < base.tiles(); ++t) {
        EXPECT_EQ(ref.tileInstructions(t), evt.tileInstructions(t))
            << "tile " << t;
        EXPECT_EQ(ref.tileIdleAfterHalt(t), evt.tileIdleAfterHalt(t))
            << "tile " << t;
    }

    // The hw cell carries the D9 breakdown, the derived metrics, the
    // verdict and the epoch timeline.
    const stats::CycleBreakdown refSplit = ref.cycleBreakdown(refCycles);
    const stats::CycleBreakdown evtSplit = evt.cycleBreakdown(evtCycles);
    EXPECT_EQ(ref.hwCell(refCycles, refSplit),
              evt.hwCell(evtCycles, evtSplit));
    EXPECT_EQ(statsText(ref), statsText(evt));

    if (readback) {
        EXPECT_EQ(readback(ref), readback(evt));
    }
}

/** expectRunsAgree for a workload that only needs setting up. */
void
expectSteppersAgree(const std::function<void(RawMachine &)> &setup,
                    RawConfig base = RawConfig{},
                    const Readback &readback = {})
{
    expectRunsAgree(
        [&](RawMachine &m) {
            setup(m);
            return m.run();
        },
        base, readback);
}

/** A mesh of @p width x @p height tiles, other parameters default. */
RawConfig
meshConfig(unsigned width, unsigned height)
{
    RawConfig cfg;
    cfg.meshWidth = width;
    cfg.meshHeight = height;
    return cfg;
}

/** A square test matrix with distinct, position-dependent words. */
kernels::WordMatrix
testMatrix(unsigned n)
{
    kernels::WordMatrix m(n, n);
    for (std::size_t i = 0; i < m.data.size(); ++i)
        m.data[i] = static_cast<Word>(i * 2654435761u + 17);
    return m;
}

/**
 * Run cornerTurnRaw on an n x n matrix under both steppers on
 * @p base's mesh; both transposes must match each other and the
 * source.
 */
void
expectCornerTurnAgrees(unsigned n, const RawConfig &base = RawConfig{})
{
    const kernels::WordMatrix src = testMatrix(n);
    std::vector<kernels::WordMatrix> outs;
    expectRunsAgree(
        [&](RawMachine &m) {
            kernels::WordMatrix dst;
            const Cycles cycles = cornerTurnRaw(m, src, dst);
            outs.push_back(std::move(dst));
            return cycles;
        },
        base);
    ASSERT_EQ(outs.size(), 2u);
    EXPECT_EQ(outs[0].data, outs[1].data);
    EXPECT_TRUE(kernels::isTransposeOf(src, outs[1]));
}

TEST(RawEventDifferential, DependentLatencyChain)
{
    // Pure tile-local code: exercises the batch executor's dep-gap
    // accounting (tcDep bumped per stall event, not per call).
    expectSteppersAgree([](RawMachine &m) {
        Assembler as;
        as.li(1, static_cast<std::int32_t>(floatToWord(1.0f)));
        for (int i = 0; i < 40; ++i)
            as.fmul(1, 1, 1);
        for (int i = 0; i < 40; ++i)
            as.fmul(2 + (i % 8), 1, 1);
        as.halt();
        m.setProgram(0, as.finish());
    });
}

TEST(RawEventDifferential, StaticNetworkPingPong)
{
    // Blocking $csti/$csto between distant tiles: the event stepper
    // must resolve unknown wake times via FIFO-push notification.
    expectSteppersAgree([](RawMachine &m) {
        m.setRoute(0, 15);
        m.setRoute(15, 0);
        Assembler t0;
        t0.li(1, 5);
        Label loop = t0.label();
        t0.bind(loop);
        t0.move(regCsto, 1);
        t0.move(2, regCsti);
        t0.addi(1, 1, -1);
        t0.bne(1, 0, loop);
        t0.halt();
        m.setProgram(0, t0.finish());
        Assembler t15;
        t15.li(3, 5);
        Label echo = t15.label();
        t15.bind(echo);
        t15.move(regCsto, regCsti);
        t15.addi(3, 3, -1);
        t15.bne(3, 0, echo);
        t15.halt();
        m.setProgram(15, t15.finish());
    });
}

TEST(RawEventDifferential, FullFifoBackpressure)
{
    // A fast sender against a slow consumer: the sender re-polls a
    // full FIFO every cycle, the exact path of the net-stall
    // re-count fix.
    expectSteppersAgree([](RawMachine &m) {
        m.setRoute(0, 1);
        Assembler fast;
        fast.li(1, 64);
        Label send = fast.label();
        fast.bind(send);
        fast.move(regCsto, 1);
        fast.addi(1, 1, -1);
        fast.bne(1, 0, send);
        fast.halt();
        m.setProgram(0, fast.finish());
        Assembler slow;
        slow.li(1, static_cast<std::int32_t>(floatToWord(2.0f)));
        slow.li(2, 64);
        Label eat = slow.label();
        slow.bind(eat);
        slow.move(3, regCsti);
        slow.fmul(4, 1, 1);     // latency padding between pops
        slow.fmul(4, 4, 4);
        slow.addi(2, 2, -1);
        slow.bne(2, 0, eat);
        slow.halt();
        m.setProgram(1, slow.finish());
    });
}

TEST(RawEventDifferential, DmaRoundTripWithRowMisses)
{
    // DMA ports on both sides of a tile, long enough to cross DRAM
    // row boundaries (the per-port wake path).
    expectSteppersAgree([](RawMachine &m) {
        const Addr in = m.allocGlobal(4096, "in");
        const Addr out = m.allocGlobal(4096, "out");
        std::vector<Word> data(1024);
        for (unsigned i = 0; i < 1024; ++i)
            data[i] = i * 7;
        m.pokeGlobal(in, data);
        m.dmaIn(5, 5, in, 1024);
        m.dmaOut(5, out, 1024);
        m.setRoute(5, portEndpoint(5));
        Assembler as;
        as.li(2, 1024);
        Label loop = as.label();
        as.bind(loop);
        as.add(regCsto, regCsti, 0);
        as.addi(2, 2, -1);
        as.bne(2, 0, loop);
        as.halt();
        m.setProgram(5, as.finish());
    });
}

TEST(RawEventDifferential, CachedGlobalAccesses)
{
    // Global lw/sw through the per-tile cache: the batch executor
    // must hand these back to the per-cycle path untouched.
    expectSteppersAgree([](RawMachine &m) {
        const Addr buf = m.allocGlobal(16384, "buf");
        std::vector<Word> data(4096);
        for (unsigned i = 0; i < 4096; ++i)
            data[i] = i;
        m.pokeGlobal(buf, data);
        Assembler as;
        as.li(1, static_cast<std::int32_t>(buf));
        as.li(2, 2048);
        as.li(3, 0);
        Label loop = as.label();
        as.bind(loop);
        as.lw(4, 1, 0);
        as.add(3, 3, 4);
        as.sw(3, 1, 0);
        as.addi(1, 1, 4);
        as.addi(2, 2, -1);
        as.bne(2, 0, loop);
        as.halt();
        m.setProgram(0, as.finish());
    });
}

TEST(RawEventDifferential, DmaChainBesideCachedGlobalReader)
{
    // One tile streams a buffer through its own port while another
    // tile reads the same buffer through its data cache. Read/read
    // sharing is legal; the event stepper must interleave the cached
    // loads with the DMA stream in global cycle order like the
    // reference does, not trap or abort.
    std::vector<Word> data(1024);
    for (unsigned i = 0; i < 1024; ++i)
        data[i] = i * 3 + 1;
    Addr out = 0, total = 0;
    const auto setup = [&](RawMachine &m) {
        const Addr in = m.allocGlobal(4096, "in");
        out = m.allocGlobal(4096, "out");
        total = m.allocGlobal(4, "total");
        m.pokeGlobal(in, data);

        m.setRoute(0, portEndpoint(0));
        m.dmaIn(0, 0, in, 1024);
        m.dmaOut(0, out, 1024);
        Assembler stream;
        stream.li(2, 1024);
        Label copy = stream.label();
        stream.bind(copy);
        stream.add(regCsto, regCsti, 0);
        stream.addi(2, 2, -1);
        stream.bne(2, 0, copy);
        stream.halt();
        m.setProgram(0, stream.finish());

        Assembler reader;
        reader.li(1, static_cast<std::int32_t>(in));
        reader.li(2, 256);
        reader.li(3, 0);
        Label sum = reader.label();
        reader.bind(sum);
        reader.lw(4, 1, 0);
        reader.add(3, 3, 4);
        reader.addi(1, 1, 4);
        reader.addi(2, 2, -1);
        reader.bne(2, 0, sum);
        reader.li(5, static_cast<std::int32_t>(total));
        reader.sw(3, 5, 0);
        reader.halt();
        m.setProgram(1, reader.finish());
    };
    const auto readback = [&](const RawMachine &m) {
        std::vector<Word> words = m.peekGlobal(out, 1024);
        words.push_back(m.peekGlobal(total, 1)[0]);
        return words;
    };
    expectSteppersAgree(setup, RawConfig{}, readback);

    RawMachine evt;
    setup(evt);
    evt.run();
    std::vector<Word> expect = data;
    Word sum = 0;
    for (unsigned i = 0; i < 256; ++i)
        sum += data[i];
    expect.push_back(sum);
    EXPECT_EQ(readback(evt), expect);
}

/** A tile program that sends the words first .. first + count - 1 on
 *  $csto, one per cycle (unrolled li $csto). */
std::vector<Instr>
senderProgram(std::int32_t first, std::int32_t count)
{
    Assembler as;
    for (std::int32_t i = 0; i < count; ++i)
        as.li(regCsto, first + i);
    as.halt();
    return as.finish();
}

TEST(RawEventDifferential, TwoTilesSharingOnePortKeepWordOrder)
{
    // Two tiles interleave $csto sends into port 0, which writes the
    // words to DRAM in arrival order. A batch that ran either sender
    // ahead would queue its words behind the other's later ones. Two
    // words arrive per cycle and the port drains one, so the cycle
    // count is the same either way: only the DRAM words show it.
    constexpr std::int32_t words = 256;
    Addr out = 0;
    const auto setup = [&](RawMachine &m) {
        out = m.allocGlobal(2 * words * 4, "out");
        m.dmaOut(0, out, 2 * words);
        for (const unsigned t : {0u, 1u}) {
            m.setRoute(t, portEndpoint(0));
            m.setProgram(t, senderProgram(static_cast<std::int32_t>(
                                              t * 1000),
                                          words));
        }
    };
    const auto readback = [&](const RawMachine &m) {
        return m.peekGlobal(out, 2 * words);
    };
    expectSteppersAgree(setup, RawConfig{}, readback);

    RawMachine evt;
    setup(evt);
    evt.run();
    const std::vector<Word> got = readback(evt);
    ASSERT_EQ(got.size(), 2u * words);
    // The senders run in lockstep, so their words alternate.
    for (unsigned i = 0; i < 2 * words; ++i)
        EXPECT_EQ(got[i], (i % 2) * 1000 + i / 2) << "word " << i;
}

TEST(RawEventDifferential, DecodedStateFollowsProgramAndRouteChanges)
{
    // One machine, two runs. Before the first, tile 0 gets a program
    // and then its replacement; only the replacement may run. Between
    // the runs tile 1 is rerouted onto tile 0's port, which goes from
    // one sender (batched sends) to two (stepped sends).
    constexpr std::int32_t words = 128;
    Addr first = 0, second = 0;
    std::vector<Cycles> runCycles;
    const Drive drive = [&](RawMachine &m) {
        first = m.allocGlobal(words * 4, "first");
        second = m.allocGlobal(2 * words * 4, "second");
        m.setRoute(0, portEndpoint(0));
        m.setRoute(1, portEndpoint(1));
        m.setProgram(0, senderProgram(7000, words));
        m.setProgram(0, senderProgram(100, words));
        m.dmaOut(0, first, words);
        const Cycles a = m.run();

        m.setRoute(1, portEndpoint(0));
        m.setProgram(0, senderProgram(200, words));
        m.setProgram(1, senderProgram(300, words));
        m.dmaOut(0, second, 2 * words);
        const Cycles b = m.run();
        runCycles.push_back(a);
        runCycles.push_back(b);
        return a + b;
    };
    std::vector<std::vector<Word>> outs;
    const Readback readback = [&](const RawMachine &m) {
        std::vector<Word> words1 = m.peekGlobal(first, words);
        const std::vector<Word> words2 = m.peekGlobal(second, 2 * words);
        words1.insert(words1.end(), words2.begin(), words2.end());
        outs.push_back(words1);
        return words1;
    };
    expectRunsAgree(drive, RawConfig{}, readback);

    ASSERT_EQ(runCycles.size(), 4u);
    EXPECT_EQ(runCycles[0], runCycles[2]);
    EXPECT_EQ(runCycles[1], runCycles[3]);
    ASSERT_EQ(outs.size(), 2u);
    const std::vector<Word> &got = outs[1];
    for (unsigned i = 0; i < words; ++i)
        EXPECT_EQ(got[i], 100 + i) << "first run, word " << i;
    for (unsigned i = 0; i < 2 * words; ++i) {
        EXPECT_EQ(got[words + i], (i % 2 ? 300 : 200) + i / 2)
            << "second run, word " << i;
    }
}

TEST(RawEventDifferential, DynamicNetworkGather)
{
    // dsend/drecv with unknown receiver wake times and send
    // occupancy stalls.
    expectSteppersAgree([](RawMachine &m) {
        for (unsigned t = 1; t < 16; ++t) {
            Assembler as;
            as.li(1, 0);
            for (int i = 0; i < 4; ++i) {
                as.li(2, static_cast<std::int32_t>(t * 10 + i));
                as.dsend(1, 2);
            }
            as.halt();
            m.setProgram(t, as.finish());
        }
        Assembler hub;
        hub.li(1, 0);
        hub.li(2, 60);
        Label loop = hub.label();
        hub.bind(loop);
        hub.drecv(3);
        hub.add(1, 1, 3);
        hub.addi(2, 2, -1);
        hub.bne(2, 0, loop);
        hub.sw(1, 0, 0);
        hub.halt();
        m.setProgram(0, hub.finish());
    });
}

TEST(RawEventDifferential, CornerTurnWithFewLiveTilesAndPorts)
{
    // n / 64 block rows go round-robin over the 16 tiles, so these
    // sizes leave 1-4 tiles and ports live; the rest halt at cycle 0.
    for (const unsigned n : {64u, 128u, 192u, 256u}) {
        SCOPED_TRACE(n);
        expectCornerTurnAgrees(n);
    }
}

TEST(RawEventDifferential, SingleTileMesh)
{
    expectCornerTurnAgrees(128, meshConfig(1, 1));
    expectSteppersAgree(
        [](RawMachine &m) {
            const Addr in = m.allocGlobal(4096, "in");
            const Addr out = m.allocGlobal(4096, "out");
            std::vector<Word> data(1024);
            for (unsigned i = 0; i < 1024; ++i)
                data[i] = i * 5 + 3;
            m.pokeGlobal(in, data);
            m.dmaIn(0, 0, in, 1024);
            m.dmaOut(0, out, 1024);
            m.setRoute(0, portEndpoint(0));
            Assembler as;
            as.li(2, 1024);
            Label loop = as.label();
            as.bind(loop);
            as.add(regCsto, regCsti, 0);
            as.addi(2, 2, -1);
            as.bne(2, 0, loop);
            as.halt();
            m.setProgram(0, as.finish());
        },
        meshConfig(1, 1));
}

TEST(RawEventDifferential, TwoByTwoMesh)
{
    expectCornerTurnAgrees(192, meshConfig(2, 2));
    // Static-network ping-pong across the mesh diagonal plus a
    // dynamic-network gather into tile 0.
    expectSteppersAgree(
        [](RawMachine &m) {
            m.setRoute(1, 2);
            m.setRoute(2, 1);
            Assembler t1;
            t1.li(1, 6);
            Label loop = t1.label();
            t1.bind(loop);
            t1.move(regCsto, 1);
            t1.move(2, regCsti);
            t1.addi(1, 1, -1);
            t1.bne(1, 0, loop);
            t1.halt();
            m.setProgram(1, t1.finish());
            Assembler t2;
            t2.li(3, 6);
            Label echo = t2.label();
            t2.bind(echo);
            t2.move(regCsto, regCsti);
            t2.addi(3, 3, -1);
            t2.bne(3, 0, echo);
            t2.li(4, 0);
            t2.li(5, 42);
            t2.dsend(4, 5);
            t2.halt();
            m.setProgram(2, t2.finish());
            Assembler t3;
            t3.li(4, 0);
            t3.li(5, 7);
            t3.dsend(4, 5);
            t3.halt();
            m.setProgram(3, t3.finish());
            Assembler hub;
            hub.drecv(1);
            hub.drecv(2);
            hub.add(1, 1, 2);
            hub.sw(1, 0, 0);
            hub.halt();
            m.setProgram(0, hub.finish());
        },
        meshConfig(2, 2));
}

TEST(RawEventDifferential, MeshSizeOutsideMaskWidthIsFatal)
{
    // The event loop's live-tile and busy-port sets are 64-bit masks.
    EXPECT_DEATH(RawMachine m(meshConfig(0, 4)), "1..64");
    EXPECT_DEATH(RawMachine m(meshConfig(13, 5)), "1..64");
    RawMachine widest(meshConfig(8, 8));
    EXPECT_EQ(widest.config().tiles(), 64u);
}

/** Run a tile that waits forever on $csti, capped at 5000 cycles. */
template <typename Machine>
void
runDeadlock()
{
    RawConfig cfg;
    cfg.maxCycles = 5000;
    Machine m(cfg);
    Assembler as;
    as.move(1, regCsti);
    as.halt();
    m.setProgram(0, as.finish());
    m.run();
}

TEST(RawEventDifferential, MaxCyclesDeadlockIsFatalInBothModes)
{
    // The skip-ahead must not jump past the runaway guard.
    EXPECT_DEATH(runDeadlock<ReferenceRawMachine>(), "deadlock");
    EXPECT_DEATH(runDeadlock<RawMachine>(), "deadlock");
}

TEST(RawEventDifferential, NonPowerOfTwoPortRowDies)
{
    RawConfig cfg;
    cfg.portRowBytes = 1536;
    EXPECT_DEATH(RawMachine{cfg}, "power of two");
}

TEST(RawEventDifferential, DebugTraceRunMatchesBatchedRun)
{
    // At LogLevel::Debug run() steps every op so the trace lines keep
    // their cycle order; quietly it batches tile-local runs. The two
    // must agree on everything the run reports.
    const kernels::WordMatrix src = testMatrix(128);
    const auto turn = [&](RawMachine &m) {
        kernels::WordMatrix dst;
        const Cycles cycles = cornerTurnRaw(m, src, dst);
        EXPECT_TRUE(kernels::isTransposeOf(src, dst));
        return cycles;
    };
    RawMachine quiet, traced;
    const Cycles quietCycles = turn(quiet);
    const LogLevel saved = logLevel();
    setLogLevel(LogLevel::Debug);
    testing::internal::CaptureStderr();
    const Cycles tracedCycles = turn(traced);
    const std::string log = testing::internal::GetCapturedStderr();
    setLogLevel(saved);
    EXPECT_NE(log.find("raw tile 0 @"), std::string::npos);

    EXPECT_EQ(quietCycles, tracedCycles);
    const auto a = quiet.stallTallies();
    const auto b = traced.stallTallies();
    EXPECT_EQ(a.busy, b.busy);
    EXPECT_EQ(a.dep, b.dep);
    EXPECT_EQ(a.cache, b.cache);
    EXPECT_EQ(a.net, b.net);
    EXPECT_EQ(a.dma, b.dma);
    EXPECT_EQ(a.idle, b.idle);
    const stats::CycleBreakdown quietSplit =
        quiet.cycleBreakdown(quietCycles);
    const stats::CycleBreakdown tracedSplit =
        traced.cycleBreakdown(tracedCycles);
    EXPECT_EQ(quiet.hwCell(quietCycles, quietSplit),
              traced.hwCell(tracedCycles, tracedSplit));
    EXPECT_EQ(statsText(quiet), statsText(traced));
}

// ----------------------------------------------------------------
// Lanes (pulled DMA-in feeds, batched $csti pops) and lazy DMA-out
// drains, DESIGN D12. A tile that one port alone feeds pulls its
// words itself; every such run must still match the witness.
// ----------------------------------------------------------------

/** Global words 1 + i * 7 at a fresh allocation of @p words words. */
Addr
streamSource(RawMachine &m, unsigned words, const std::string &what)
{
    const Addr base = m.allocGlobal(std::uint64_t{words} * 4, what);
    std::vector<Word> data(words);
    for (unsigned i = 0; i < words; ++i)
        data[i] = 1 + i * 7;
    m.pokeGlobal(base, data);
    return base;
}

TEST(RawLaneDifferential, SlowConsumerFillsTheFifo)
{
    // Latency padding between pops lets the port run cap words ahead,
    // so every later push waits for the pop that frees its slot (the
    // pop(k - cap) + 1 term of the pull recurrence). Segments are
    // scattered over DRAM rows, and results leave through the solo
    // port.
    constexpr unsigned segWords = 37, segs = 6;
    Addr out = 0;
    const auto setup = [&](RawMachine &m) {
        const Addr in = streamSource(m, 4096, "in");
        out = m.allocGlobal(segWords * segs * 4, "out");
        for (unsigned s = 0; s < segs; ++s)
            m.dmaIn(3, 3, in + (s * 613 % 3500) * 4, segWords);
        m.dmaOut(3, out, segWords * segs);
        m.setRoute(3, portEndpoint(3));
        Assembler as;
        as.li(1, static_cast<std::int32_t>(floatToWord(1.5f)));
        as.li(2, segWords * segs);
        Label loop = as.label();
        as.bind(loop);
        as.add(4, regCsti, 0);
        as.fmul(5, 1, 1);
        as.fmul(5, 5, 5);
        as.fmul(5, 5, 5);
        as.add(regCsto, 4, 0);
        as.addi(2, 2, -1);
        as.bne(2, 0, loop);
        as.halt();
        m.setProgram(3, as.finish());
    };
    const auto readback = [&](const RawMachine &m) {
        return m.peekGlobal(out, segWords * segs);
    };
    for (const unsigned cap : {1u, 3u, 8u}) {
        SCOPED_TRACE(cap);
        RawConfig cfg;
        cfg.fifoCapacity = cap;
        expectSteppersAgree(setup, cfg, readback);
    }
}

/** Pop two words per op from a one-word FIFO, capped at 5000 cycles:
 *  the second word can never arrive. */
template <typename Machine>
void
runTwoPopsIntoOneWordFifo()
{
    RawConfig cfg;
    cfg.fifoCapacity = 1;
    cfg.maxCycles = 5000;
    Machine m(cfg);
    const Addr in = streamSource(m, 16, "in");
    m.dmaIn(0, 0, in, 16);
    Assembler as;
    as.add(1, regCsti, regCsti);
    as.halt();
    m.setProgram(0, as.finish());
    m.run();
}

TEST(RawLaneDifferential, TwoPopsIntoOneWordFifoIsFatalInBothMachines)
{
    EXPECT_DEATH(runTwoPopsIntoOneWordFifo<ReferenceRawMachine>(),
                 "deadlock");
    EXPECT_DEATH(runTwoPopsIntoOneWordFifo<RawMachine>(), "deadlock");
}

TEST(RawLaneDifferential, HaltWithWordsLeftInTheFifo)
{
    // The tile pops 6 of 12 words and halts. Quickly, the port still
    // has words to push after the halt (the flush hands them back to
    // the stepped port); after a long dependency chain, every word
    // is already in the FIFO. Either way the words left there count
    // in the FIFO residency up to the final cycle.
    for (const bool wait : {false, true}) {
        SCOPED_TRACE(wait);
        expectSteppersAgree([&](RawMachine &m) {
            const Addr in = streamSource(m, 12, "in");
            m.dmaIn(2, 2, in, 12);
            Assembler as;
            for (int i = 0; i < 6; ++i)
                as.add(1, regCsti, 1);
            as.li(3, static_cast<std::int32_t>(floatToWord(1.0f)));
            for (int i = 0; wait && i < 20; ++i)
                as.fmul(3, 3, 3);
            as.halt();
            m.setProgram(2, as.finish());
        });
    }
}

/** A tile program that polls global @p addr until it reads a
 *  non-zero word, after @p skew cycles of delay. */
std::vector<Instr>
pollProgram(Addr addr, int skew)
{
    Assembler as;
    for (int i = 0; i < skew; ++i)
        as.addi(0, 0, 0);
    as.li(1, static_cast<std::int32_t>(addr));
    Label poll = as.label();
    as.bind(poll);
    as.lw(4, 1, 0);
    as.beq(4, 0, poll);
    as.halt();
    return as.finish();
}

TEST(RawLaneDifferential, GlobalLoadSeesLazyDrainsOfItsCycle)
{
    // Tile 0 streams through its port (a lane, drained lazily) while
    // four tiles poll one of the words it writes, at every phase of
    // their four-cycle loop: one of them loads the word in exactly
    // the cycle the port writes it, and must see it then (drains due
    // by a load's cycle land before it). A fifth tile stores into
    // another output word before the port writes it, so the final
    // image shows the order too.
    constexpr unsigned words = 400;
    Addr out = 0;
    const auto setup = [&](RawMachine &m) {
        const Addr in = streamSource(m, words, "in");
        out = m.allocGlobal(words * 4, "out");
        m.dmaIn(0, 0, in, words);
        m.dmaOut(0, out, words);
        m.setRoute(0, portEndpoint(0));
        Assembler as;
        as.li(2, words);
        Label loop = as.label();
        as.bind(loop);
        as.add(regCsto, regCsti, 0);
        as.addi(2, 2, -1);
        as.bne(2, 0, loop);
        as.halt();
        m.setProgram(0, as.finish());
        for (int skew = 0; skew < 4; ++skew)
            m.setProgram(4 + skew, pollProgram(out + 300 * 4, skew));
        Assembler store;
        store.li(1, static_cast<std::int32_t>(out + 350 * 4));
        store.li(2, 99);
        store.sw(2, 1, 0);
        store.halt();
        m.setProgram(9, store.finish());
    };
    const auto readback = [&](const RawMachine &m) {
        return m.peekGlobal(out, words);
    };
    expectSteppersAgree(setup, RawConfig{}, readback);
}

TEST(RawLaneDifferential, DramPipelineThroughTwoPortsSteps)
{
    // Port 0 writes what port 1 streams in: a DMA-in source is a
    // DMA-out target, so this run keeps every port and tile stepped.
    constexpr unsigned words = 300;
    Addr mid = 0, out = 0;
    const auto setup = [&](RawMachine &m) {
        const Addr in = streamSource(m, words, "in");
        mid = m.allocGlobal(words * 4, "mid");
        out = m.allocGlobal(words * 4, "out");
        m.dmaIn(0, 0, in, words);
        m.dmaOut(0, mid, words);
        m.dmaIn(1, 1, mid, words);
        m.dmaOut(1, out, words);
        for (const unsigned t : {0u, 1u}) {
            m.setRoute(t, portEndpoint(t));
            Assembler as;
            as.li(2, words);
            Label loop = as.label();
            as.bind(loop);
            as.addi(regCsto, regCsti, static_cast<std::int32_t>(t + 1));
            as.addi(2, 2, -1);
            as.bne(2, 0, loop);
            as.halt();
            m.setProgram(t, as.finish());
        }
    };
    const auto readback = [&](const RawMachine &m) {
        std::vector<Word> got = m.peekGlobal(mid, words);
        const std::vector<Word> tail = m.peekGlobal(out, words);
        got.insert(got.end(), tail.begin(), tail.end());
        return got;
    };
    expectSteppersAgree(setup, RawConfig{}, readback);
}

/** A tile program that pops @p pops words per op (1 or 2), @p ops
 *  times, and halts. */
std::vector<Instr>
popProgram(unsigned pops, unsigned ops)
{
    Assembler as;
    as.li(2, static_cast<std::int32_t>(ops));
    Label loop = as.label();
    as.bind(loop);
    if (pops == 2)
        as.add(1, regCsti, regCsti);
    else
        as.add(1, regCsti, 1);
    as.addi(2, 2, -1);
    as.bne(2, 0, loop);
    as.halt();
    return as.finish();
}

TEST(RawLaneDifferential, SharedAndTileFedFifosAreNotLanes)
{
    // Tile 2 takes words from ports 0 and 1; tile 5 from port 5 and
    // from tile 4's $csto. Neither FIFO has one feeder, so both keep
    // today's stepping, beside a lane on tile 8.
    expectSteppersAgree([](RawMachine &m) {
        const Addr in = streamSource(m, 600, "in");
        m.dmaIn(0, 2, in, 100);
        m.dmaIn(1, 2, in + 400, 100);
        m.dmaIn(5, 5, in + 800, 100);
        m.dmaIn(8, 8, in + 1200, 100);
        m.setProgram(2, popProgram(2, 100));
        m.setRoute(4, 5);
        m.setProgram(4, senderProgram(1, 100));
        m.setProgram(5, popProgram(2, 100));
        m.setProgram(8, popProgram(1, 100));
    });
}

TEST(RawLaneDifferential, OneMachineRunsTwice)
{
    // The first run leaves words in tile 1's FIFO, so in the second
    // its FIFO does not start empty and it is no lane; tile 0 is a
    // lane in both runs.
    Addr out = 0;
    const Drive drive = [&](RawMachine &m) {
        const Addr in = streamSource(m, 400, "in");
        out = m.allocGlobal(400 * 4, "out");
        Cycles total = 0;
        for (unsigned run = 0; run < 2; ++run) {
            m.dmaIn(0, 0, in + run * 800, 100);
            m.dmaOut(0, out + run * 400, 100);
            m.setRoute(0, portEndpoint(0));
            Assembler as;
            as.li(2, 100);
            Label loop = as.label();
            as.bind(loop);
            as.add(regCsto, regCsti, regCsti);
            as.addi(2, 2, -1);
            as.bne(2, 0, loop);
            as.halt();
            m.dmaIn(0, 0, in + run * 800 + 400, 100);
            m.setProgram(0, as.finish());
            m.dmaIn(1, 1, in + 1200, 6);
            Assembler few;
            few.add(1, regCsti, regCsti);
            few.halt();
            m.setProgram(1, few.finish());
            total += m.run();
        }
        return total;
    };
    expectRunsAgree(drive, RawConfig{}, [&](const RawMachine &m) {
        return m.peekGlobal(out, 200);
    });
}

/** Tile 1 stores into a word that tile 0's DMA-in stream reads. */
template <typename Machine>
void
runStoreIntoDmaSource()
{
    Machine m;
    const Addr in = streamSource(m, 64, "in");
    m.dmaIn(0, 0, in, 64);
    Assembler reader;
    for (int i = 0; i < 64; ++i)
        reader.add(1, regCsti, 1);
    reader.halt();
    m.setProgram(0, reader.finish());
    Assembler writer;
    writer.li(1, static_cast<std::int32_t>(in + 40 * 4));
    writer.sw(0, 1, 0);
    writer.halt();
    m.setProgram(1, writer.finish());
    m.run();
}

TEST(RawLaneDifferential, StoreIntoDmaSourceIsFatalInBothMachines)
{
    // During a run a DMA-in source belongs to its stream (D12); the
    // rule holds the same way in the witness.
    EXPECT_DEATH(runStoreIntoDmaSource<ReferenceRawMachine>(),
                 "DMA-in source");
    EXPECT_DEATH(runStoreIntoDmaSource<RawMachine>(), "DMA-in source");
}

TEST(RawLaneDifferential, DmaSegmentsPastGlobalDramDie)
{
    RawConfig cfg;
    cfg.globalBytes = 1 << 20;
    const Addr end = globalBase + cfg.globalBytes;
    RawMachine m(cfg);
    m.dmaIn(0, 0, end - 16, 4);     // the last four words: fine
    m.dmaOut(0, end - 16, 4);
    EXPECT_DEATH(m.dmaIn(0, 0, end - 16, 5), "outside global DRAM");
    EXPECT_DEATH(m.dmaOut(1, end - 12, 4), "outside global DRAM");
    // 4 * 0x40000001 wraps to 4 in 32 bits.
    EXPECT_DEATH(m.dmaIn(2, 2, end - 16, 0x40000001u),
                 "outside global DRAM");
    EXPECT_DEATH(m.dmaOut(2, end + 4, 1), "outside global DRAM");
}

/**
 * A seeded stream program: 1-4 lanes on random tiles, each fed by
 * its own port through 1-5 segments of 1-70 words at random bases
 * across DRAM rows, consumed by a loop of 1- and 2-pop ops with
 * optional latency chains; half the lanes send each result to their
 * solo port, whose DMA-out segments cover the sends. Words may be
 * left unpopped at halt.
 */
void
seededStreamProgram(RawMachine &m, std::uint64_t seed, Addr &out,
                    unsigned &outWords)
{
    Rng rng(seed);
    const RawConfig &cfg = m.config();
    const Addr in = streamSource(m, 8192, "in");
    out = m.allocGlobal(8192 * 4, "out");
    outWords = 0;
    const unsigned lanes = 1 + static_cast<unsigned>(rng.nextBelow(4));
    unsigned tilesUsed = 0, portsUsed = 0;
    for (unsigned l = 0; l < lanes; ++l) {
        unsigned t = 0, p = 0;
        do {
            t = static_cast<unsigned>(rng.nextBelow(cfg.tiles()));
        } while (tilesUsed >> t & 1);
        do {
            p = static_cast<unsigned>(rng.nextBelow(cfg.tiles()));
        } while (portsUsed >> p & 1);
        tilesUsed |= 1u << t;
        portsUsed |= 1u << p;
        // Two-pop ops only where the FIFO holds two words.
        const bool pairs = cfg.fifoCapacity >= 2 && rng.nextBelow(2);
        const unsigned segs = 1 + static_cast<unsigned>(rng.nextBelow(5));
        unsigned words = 0;
        for (unsigned s = 0; s < segs; ++s) {
            unsigned len = 1 + static_cast<unsigned>(rng.nextBelow(70));
            len += pairs && len % 2;
            const Addr base =
                in + rng.nextBelow(8192 - len) * 4;
            m.dmaIn(p, t, base, len);
            words += len;
        }
        const unsigned perOp = pairs ? 2 : 1;
        const unsigned left = rng.nextBelow(3) == 0
                                  ? static_cast<unsigned>(rng.nextBelow(
                                        std::min(words, cfg.fifoCapacity)
                                        / perOp + 1)) * perOp
                                  : 0;
        const unsigned ops = (words - left) / perOp;
        const bool sends = rng.nextBelow(2) == 1;
        const unsigned chain = static_cast<unsigned>(rng.nextBelow(4));
        Assembler as;
        as.li(7, static_cast<std::int32_t>(floatToWord(1.25f)));
        if (ops > 0) {
            as.li(2, static_cast<std::int32_t>(ops));
            Label loop = as.label();
            as.bind(loop);
            if (pairs)
                as.add(4, regCsti, regCsti);
            else
                as.add(4, regCsti, 4);
            for (unsigned c = 0; c < chain; ++c)
                as.fmul(7, 7, 7);
            if (sends)
                as.add(regCsto, 4, 0);
            as.addi(2, 2, -1);
            as.bne(2, 0, loop);
        }
        as.halt();
        m.setProgram(t, as.finish());
        if (sends && ops > 0) {
            m.setRoute(t, portEndpoint(p));
            // Cover the sends with 1-3 segments at row-crossing bases.
            unsigned done = 0;
            while (done < ops) {
                const unsigned len = std::min(
                    ops - done,
                    1 + static_cast<unsigned>(rng.nextBelow(ops)));
                m.dmaOut(p, out + (outWords + rng.nextBelow(8)) * 4, len);
                outWords += len + 8;
                done += len;
            }
        }
    }
}

TEST(RawLaneDifferential, SeededStreamProgramsAcrossSteppers)
{
    // As many seeded programs as fit in about a second (at least 24):
    // FIFO capacity 1-8, row-miss penalty 0 or 12.
    const auto start = std::chrono::steady_clock::now();
    unsigned checked = 0;
    for (std::uint64_t seed = 1; checked < 400; ++seed) {
        const double secs = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - start)
                                .count();
        if (checked >= 24 && secs > 1.0)
            break;
        RawConfig cfg;
        cfg.fifoCapacity = 1 + static_cast<unsigned>(seed % 8);
        cfg.portRowMissPenalty = seed % 3 == 0 ? 0 : 12;
        Addr out = 0;
        unsigned outWords = 0;
        SCOPED_TRACE(seed);
        expectSteppersAgree(
            [&](RawMachine &m) {
                seededStreamProgram(m, seed, out, outWords);
            },
            cfg,
            [&](const RawMachine &m) {
                return m.peekGlobal(out, outWords);
            });
        ++checked;
        if (testing::Test::HasFailure())
            break;
    }
    EXPECT_GE(checked, 24u);
}

// ----------------------------------------------------------------
// Block schedules (DESIGN D12 (5)): a batch that enters a basic block
// at its start runs the block's values, then applies the timing
// computed once for it, when no live-in is ready later than its first
// use. Every such run must still match the witness.
// ----------------------------------------------------------------

TEST(RawEventDifferential, BlockLiveInsReadyAroundFirstUse)
{
    // A block ends with a result of latency `lat` and a jump; the next
    // block reads it after `fill` independent ops. Its ready time then
    // lands before, at or after its first use (lat - 2 - fill cycles
    // after), so the schedule is exact, exact at the edge, or not, and
    // a result left one cycle short would show.
    for (unsigned lat = 1; lat <= 6; ++lat) {
        for (unsigned fill = 0; fill <= 4; ++fill) {
            SCOPED_TRACE(testing::Message() << "lat " << lat << ", fill "
                                            << fill);
            RawConfig cfg;
            cfg.fpLatency = lat;
            cfg.loadLatency = lat;
            expectSteppersAgree(
                [&](RawMachine &m) {
                    Assembler as;
                    Label top = as.label(), body = as.label(),
                          next = as.label();
                    as.li(1, 3);
                    as.li(2, static_cast<std::int32_t>(floatToWord(1.5f)));
                    as.jump(top);
                    as.bind(top);
                    as.fmul(3, 2, 2);
                    as.lw(4, 0, 64);
                    as.jump(body);
                    as.bind(body);
                    for (unsigned k = 0; k < fill; ++k)
                        as.addi(5 + k, 1, static_cast<std::int32_t>(k));
                    as.fadd(2, 3, 4);
                    as.sw(2, 0, 64);
                    as.fmul(10, 2, 2);
                    as.jump(next);
                    as.bind(next);
                    as.fadd(11, 10, 10);
                    as.addi(1, 1, -1);
                    as.bne(1, 0, top);
                    as.sw(11, 0, 68);
                    as.halt();
                    m.setProgram(0, as.finish());
                },
                cfg,
                [](const RawMachine &m) { return m.peekLocal(0, 64, 2); });
        }
    }
}

/**
 * A seeded program per live tile for the block schedules: sections of
 * random ALU, FP and SRAM ops, straight or in bounded loops, each
 * ending in a result of random latency that the next section reads
 * after a few other ops; cached-global lw/sw on a base the program
 * computed (so they land mid-block) or loaded (so they run op by op),
 * some on a region every tile shares; and $csto sends to a port the
 * tile feeds alone or shares. The registers are stored to SRAM before
 * the halt. @p words global words from @p global hold everything the
 * programs write there.
 *
 * FP ops read and write r9-r12 only, which hold floats and are loaded
 * only from SRAM words FP registers stored. Every NaN they make is then
 * the FPU's default NaN: which payload an op on two different NaNs
 * keeps depends on the host compiler's operand order.
 */
void
seededBlockProgram(RawMachine &m, std::uint64_t seed, Addr &global,
                   unsigned &words)
{
    Rng rng(seed);
    const auto below = [&rng](unsigned n) {
        return static_cast<unsigned>(rng.nextBelow(n));
    };
    const RawConfig &cfg = m.config();
    const unsigned tiles = cfg.tiles();
    constexpr unsigned region = 256;        // words per tile
    constexpr unsigned outWords = 4096;     // DMA-out area per port
    words = (tiles + 1) * region + tiles * outWords;
    global = m.allocGlobal(std::uint64_t{words} * 4, "blocks");
    std::vector<Word> init(words);
    for (unsigned i = 0; i < words; ++i)
        init[i] = static_cast<Word>(rng.next());
    m.pokeGlobal(global, init);
    const Addr shared = global + tiles * region * 4;
    const Addr out = global + (tiles + 1) * region * 4;

    // r1-r8 integers, r9-r12 floats, r13 loop counter, r14 address
    // mask, r15 SRAM base (integer words at +0, floats at +1024), r16
    // this tile's global region, r17/r18 computed SRAM/global
    // addresses, r19 the shared region.
    std::vector<unsigned> sends(tiles, 0);
    std::vector<unsigned> route(tiles, ~0u);
    for (unsigned t = 0; t < tiles; ++t) {
        if (below(4) == 0)
            continue;       // an idle tile
        if (below(2) == 0)
            route[t] = below(tiles);
        const auto intReg = [&] { return 1 + below(8); };
        const auto fpReg = [&] { return 9 + below(4); };
        const auto anyReg = [&] { return 1 + below(12); };
        const auto off = [&] {
            return static_cast<std::int32_t>(4 * below(region));
        };
        Assembler as;
        unsigned trips = 1;     // of the loop being emitted
        // One random op writing neither `keep` nor r0.
        const auto op = [&](unsigned keep) {
            const auto dst = [&](bool fp) {
                unsigned rd = fp ? fpReg() : intReg();
                while (rd == keep)
                    rd = fp ? fpReg() : intReg();
                return rd;
            };
            const unsigned a = intReg(), b = anyReg();
            switch (below(20)) {
              case 0: as.add(dst(false), a, b); break;
              case 1: as.addi(dst(false), a, static_cast<std::int32_t>(below(64)) - 32); break;
              case 2: as.sub(dst(false), a, b); break;
              case 3: as.mul(dst(false), a, b); break;
              case 4: as.sll(dst(false), a, below(32)); break;
              case 5: as.sra(dst(false), b, below(32)); break;
              case 6: as.xor_(dst(false), a, b); break;
              case 7: as.li(dst(false), static_cast<std::int32_t>(rng.next())); break;
              case 8: as.fadd(dst(true), fpReg(), fpReg()); break;
              case 9: as.fsub(dst(true), fpReg(), fpReg()); break;
              case 10: as.fmul(dst(true), fpReg(), fpReg()); break;
              case 11:
                below(2) ? as.lw(dst(false), 15, off())
                         : as.lw(dst(true), 15, 1024 + off());
                break;
              case 12:
                below(2) ? as.sw(b, 15, off()) : as.sw(fpReg(), 15, 1024 + off());
                break;
              case 13:
                as.and_(17, a, 14);
                as.add(17, 17, 15);
                below(2) ? as.lw(dst(false), 17, 0) : as.sw(b, 17, 0);
                break;
              case 14: as.lw(dst(false), 16, off()); break;
              case 15: as.sw(b, 16, off()); break;
              case 16:
                as.and_(18, a, 14);
                as.add(18, 18, 16);
                below(2) ? as.lw(dst(false), 18, 0) : as.sw(b, 18, 0);
                break;
              case 17:
                below(2) ? as.lw(dst(false), 19, off() % 256)
                         : as.sw(b, 19, off() % 256);
                break;
              default:
                if (route[t] != ~0u && sends[t] + trips <= outWords / 2) {
                    as.add(regCsto, a, b);
                    sends[t] += trips;
                } else {
                    as.or_(dst(false), a, b);
                }
            }
        };
        Label start = as.label();
        as.jump(start);
        as.bind(start);
        for (unsigned r = 1; r <= 8; ++r)
            as.li(r, static_cast<std::int32_t>(rng.next()));
        for (unsigned r = 9; r <= 12; ++r) {
            const float f = static_cast<float>(below(2000)) / 64.0f - 15.0f;
            as.li(r, static_cast<std::int32_t>(floatToWord(f)));
        }
        as.li(14, static_cast<std::int32_t>((region - 1) * 4));
        as.li(15, 256);
        as.li(16, static_cast<std::int32_t>(global + t * region * 4));
        as.li(19, static_cast<std::int32_t>(shared));
        unsigned carried = fpReg();     // last section's slow result
        for (unsigned sec = 2 + below(5); sec > 0; --sec) {
            const bool loop = below(2) == 1;
            Label top = as.label(), next = as.label();
            trips = 1;
            if (loop) {
                trips = 1 + below(6);
                as.li(13, static_cast<std::int32_t>(trips));
                as.bind(top);
            }
            // A few ops, then the first read of the slow result.
            for (unsigned k = below(4); k > 0; --k)
                op(carried);
            if (carried >= 9)
                as.fadd(fpReg(), carried, fpReg());
            else
                as.add(intReg(), carried, anyReg());
            for (unsigned k = below(16); k > 0; --k)
                op(0);
            // The slow result the next section reads.
            switch (below(3)) {
              case 0:
                carried = fpReg();
                as.fmul(carried, fpReg(), fpReg());
                break;
              case 1:
                carried = intReg();
                as.mul(carried, intReg(), anyReg());
                break;
              default:
                carried = intReg();
                as.lw(carried, 15, off());
            }
            if (loop) {
                as.addi(13, 13, -1);
                as.bne(13, 0, top);
            } else {
                as.jump(next);
            }
            as.bind(next);
        }
        for (unsigned r = 1; r <= 12; ++r)
            as.sw(r, 0, static_cast<std::int32_t>(3072 + 4 * r));
        as.halt();
        m.setProgram(t, as.finish());
    }
    // Each port's DMA-out segments cover exactly its senders' words.
    std::vector<unsigned> portSends(tiles, 0);
    for (unsigned t = 0; t < tiles; ++t) {
        if (route[t] != ~0u && sends[t] != 0) {
            m.setRoute(t, portEndpoint(route[t]));
            portSends[route[t]] += sends[t];
        }
    }
    for (unsigned p = 0; p < tiles; ++p) {
        Addr at = out + Addr{p} * outWords * 4;
        for (unsigned left = portSends[p]; left != 0;) {
            const unsigned len = std::min(left, 1 + below(left));
            m.dmaOut(p, at, len);
            at += Addr{len} * 4;
            left -= len;
        }
    }
}

TEST(RawEventDifferential, SeededBlockProgramsAcrossSteppers)
{
    // As many seeded programs as fit in about a second (at least 40),
    // on 1- to 16-tile meshes with random latencies and send bounds;
    // every fourth runs with maxCycles at or just above its length.
    const auto start = std::chrono::steady_clock::now();
    unsigned checked = 0;
    for (std::uint64_t seed = 1; checked < 400; ++seed) {
        const double secs = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - start)
                                .count();
        if (checked >= 40 && secs > 1.0)
            break;
        Rng rng(seed * 0x9e3779b97f4a7c15ull);
        const auto below = [&rng](unsigned n) {
            return static_cast<unsigned>(rng.nextBelow(n));
        };
        RawConfig cfg;
        cfg.meshWidth = 1 + below(4);
        cfg.meshHeight = 1 + below(4);
        cfg.intLatency = 1 + below(2);
        cfg.mulLatency = 1 + below(4);
        cfg.fpLatency = 1 + below(6);
        cfg.loadLatency = 1 + below(5);
        cfg.portRowBytes = 16u << below(5);
        cfg.sramBytes = 4096;
        cfg.globalBytes = 1 << 21;
        Addr global = 0;
        unsigned words = 0;
        const auto setup = [&](RawMachine &m) {
            seededBlockProgram(m, seed, global, words);
        };
        if (seed % 4 == 0) {
            RawMachine probe(cfg);
            setup(probe);
            cfg.maxCycles = probe.run() + seed % 3;
        }
        SCOPED_TRACE(testing::Message() << "seed " << seed << ", "
                                        << cfg.meshWidth << "x"
                                        << cfg.meshHeight);
        expectSteppersAgree(setup, cfg, [&](const RawMachine &m) {
            std::vector<Word> image = m.peekGlobal(global, words);
            for (unsigned t = 0; t < m.config().tiles(); ++t) {
                const std::vector<Word> sram =
                    m.peekLocal(t, 0, m.config().sramBytes / 4);
                image.insert(image.end(), sram.begin(), sram.end());
            }
            return image;
        });
        ++checked;
        if (testing::Test::HasFailure())
            break;
    }
    EXPECT_GE(checked, 40u);
}

} // namespace
} // namespace triarch::raw

// Study-level: the three Raw kernels on the paper config, the fuzz
// sweep's boundary configs and seeded sweep shapes, each on the
// witness and the production machine.
namespace triarch::study
{
namespace
{

/**
 * Run one Raw kernel through raw::expectRunsAgree: @p run fills its
 * output and returns the total the cell reports; both outputs must
 * match each other and pass @p valid.
 */
template <typename Out, typename Run, typename Valid>
void
expectKernelAgrees(Run run, Valid valid)
{
    std::vector<Out> outs;
    raw::expectRunsAgree([&](raw::RawMachine &m) {
        Out out;
        const Cycles cycles = run(m, out);
        outs.push_back(std::move(out));
        return cycles;
    });
    ASSERT_EQ(outs.size(), 2u);
    EXPECT_TRUE(outs[0] == outs[1]);
    EXPECT_TRUE(valid(outs[1]));
}

/** The three Raw kernels of @p cfg agree bit for bit between the
 *  witness and the production machine, on @p cfg's workloads. */
void
expectRawKernelsAgree(const StudyConfig &cfg)
{
    const std::shared_ptr<const Workloads> work = buildWorkloads(cfg);
    {
        SCOPED_TRACE("corner turn");
        expectKernelAgrees<kernels::WordMatrix>(
            [&](raw::RawMachine &m, kernels::WordMatrix &dst) {
                return raw::cornerTurnRaw(m, work->matrix, dst);
            },
            [&](const kernels::WordMatrix &dst) {
                return kernels::isTransposeOf(work->matrix, dst);
            });
    }
    {
        // The cell reports the load-balance extrapolation, so the hw
        // cell is compared against it, as the registry takes it.
        SCOPED_TRACE("cslc");
        using Main = std::vector<std::vector<kernels::cfloat>>;
        expectKernelAgrees<Main>(
            [&](raw::RawMachine &m, Main &main) {
                kernels::CslcOutput out;
                const raw::RawCslcResult r = raw::cslcRaw(
                    m, cfg.cslc, work->cslcIn, work->weights, out);
                main = std::move(out.main);
                return r.balancedCycles;
            },
            [&](const Main &main) {
                return cslcOutputValid(cfg, *work,
                                       kernels::CslcOutput{main},
                                       kernels::FftAlgo::Radix2);
            });
    }
    {
        SCOPED_TRACE("beam steering");
        expectKernelAgrees<std::vector<std::int32_t>>(
            [&](raw::RawMachine &m, std::vector<std::int32_t> &out) {
                return raw::beamSteeringRaw(m, cfg.beam, work->tables,
                                            out);
            },
            [&](const std::vector<std::int32_t> &out) {
                return out == work->beamRef;
            });
    }
}

TEST(RawEventDifferential, PaperConfigKernels)
{
    expectRawKernelsAgree(StudyConfig{});
}

TEST(RawEventDifferential, FuzzBoundaryConfigs)
{
    FuzzOptions opts;
    opts.randomConfigs = 0;     // the hand-written boundary set only

    unsigned checked = 0;
    for (const StudyConfig &cfg : enumerateFuzzConfigs(opts)) {
        if (validateConfig(cfg))
            continue;           // invalid-on-purpose boundary config
        if (checked == 8)
            break;              // keep the suite seconds-fast
        ++checked;
        SCOPED_TRACE(describeConfig(cfg));
        expectRawKernelsAgree(cfg);
    }
    EXPECT_GE(checked, 4u) << "boundary set shrank unexpectedly";
}
TEST(RawEventDifferential, SeededSweepShapesAcrossSteppers)
{
    // Seeded shapes from the ranges perfbench's sweep draws from:
    // matrix 64..256, 1..8 sub-bands, four strides, beam 16..400
    // elements over 1..2 dwells. Small matrices leave 1-4 tiles and
    // ports live, which is where single-sender port batching and the
    // few-live-tile masks matter most.
    Rng rng(0x5eed);
    static const unsigned strides[] = {64, 96, 112, 128};
    unsigned checked = 0;
    for (unsigned i = 0; i < 6; ++i) {
        StudyConfig cfg;
        cfg.matrixSize = 64 * (1 + static_cast<unsigned>(rng.nextBelow(4)));
        cfg.cslc.subBands = 1 + static_cast<unsigned>(rng.nextBelow(8));
        cfg.cslc.subBandStride = strides[rng.nextBelow(4)];
        cfg.cslc.samples = (cfg.cslc.subBands - 1)
                               * cfg.cslc.subBandStride
                           + cfg.cslc.subBandLen;
        for (unsigned &bin : cfg.jammerBins) {
            bin = static_cast<unsigned>(rng.nextBelow(cfg.cslc.samples));
        }
        cfg.beam.elements = 16 + static_cast<unsigned>(rng.nextBelow(385));
        cfg.beam.dwells = 1 + static_cast<unsigned>(rng.nextBelow(2));
        cfg.seed = rng.next();
        if (validateConfig(cfg))
            continue;
        ++checked;
        SCOPED_TRACE(describeConfig(cfg));
        expectRawKernelsAgree(cfg);
    }
    EXPECT_GE(checked, 4u) << "too few sweep shapes were valid";
}

} // namespace
} // namespace triarch::study
