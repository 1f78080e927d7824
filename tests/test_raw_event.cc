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

#include <functional>
#include <sstream>
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
