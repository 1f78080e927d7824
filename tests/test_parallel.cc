/**
 * @file
 * Tests for the parallel experiment engine and the registry-based
 * dispatch behind it: bit-identical determinism of ParallelRunner
 * against the serial Runner at several thread counts, full coverage
 * of the built-in MappingRegistry, the typed unknown-pair error
 * path, result-cache behavior (reuse and the LRU bound), config
 * hashing, and the JSON result sink.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <sstream>
#include <thread>

#include "study/parallel.hh"
#include "study/registry.hh"
#include "study/result_sink.hh"

namespace triarch::study
{
namespace
{

/** The reduced workload from test_study.cc: fast but exercises all
 *  fifteen cells end to end. */
StudyConfig
smallConfig()
{
    StudyConfig cfg;
    cfg.matrixSize = 128;
    cfg.cslc.subBands = 8;
    cfg.cslc.samples = (cfg.cslc.subBands - 1) * cfg.cslc.subBandStride
                       + cfg.cslc.subBandLen;
    cfg.beam.elements = 256;
    cfg.beam.dwells = 2;
    cfg.jammerBins = {64, 200};
    return cfg;
}

// ---------------------------------------------------------------
// Determinism: the tentpole guarantee. Parallel execution at any
// thread count is bit-identical to the serial Runner.
// ---------------------------------------------------------------

TEST(ParallelDeterminism, BitIdenticalToSerialAtAnyThreadCount)
{
    const StudyConfig cfg = smallConfig();
    Runner serial(cfg);
    const std::vector<RunResult> expect = serial.runAll();
    ASSERT_EQ(expect.size(), 15u);

    for (unsigned threads : {1u, 2u, 8u}) {
        ParallelRunner par(cfg, threads, nullptr,
                           ParallelRunner::noCache());
        const std::vector<RunResult> got = par.runAll();
        ASSERT_EQ(got.size(), expect.size()) << threads << " threads";
        for (std::size_t i = 0; i < expect.size(); ++i) {
            EXPECT_EQ(got[i], expect[i])
                << threads << " threads, cell " << i << " ("
                << machineName(expect[i].machine) << " / "
                << kernelName(expect[i].kernel) << ")";
        }
    }
}

TEST(ParallelDeterminism, RepeatedRunsAreIdentical)
{
    const StudyConfig cfg = smallConfig();
    ParallelRunner par(cfg, 4, nullptr, ParallelRunner::noCache());
    const auto first = par.runAll();
    const auto second = par.runAll();
    EXPECT_EQ(first, second);
}

TEST(ParallelRunner, CellSubsetPreservesRequestOrder)
{
    const std::vector<Cell> cells = {
        {MachineId::Raw, KernelId::BeamSteering},
        {MachineId::Viram, KernelId::CornerTurn},
        {MachineId::Raw, KernelId::BeamSteering},
    };
    ParallelRunner par(smallConfig(), 2, nullptr,
                       ParallelRunner::noCache());
    const auto results = par.runCells(cells);
    ASSERT_EQ(results.size(), 3u);
    EXPECT_EQ(results[0].machine, MachineId::Raw);
    EXPECT_EQ(results[0].kernel, KernelId::BeamSteering);
    EXPECT_EQ(results[1].machine, MachineId::Viram);
    EXPECT_EQ(results[1].kernel, KernelId::CornerTurn);
    EXPECT_EQ(results[0], results[2]);
}

TEST(ParallelRunner, WorkQueueOverlapsIndependentCells)
{
    // Latency-bound mappings (sleeps) expose scheduling overlap even
    // on a single-core host, where CPU-bound cells cannot speed up.
    // 15 cells x 40 ms is 600 ms serially; 8 workers need two waves,
    // so anything under half the serial time proves overlap.
    MappingRegistry sleepy;
    for (MachineId machine : allMachines()) {
        for (KernelId kernel : allKernels()) {
            sleepy.add(machine, kernel,
                       [machine, kernel](const StudyConfig &,
                                         const Workloads &) {
                           std::this_thread::sleep_for(
                               std::chrono::milliseconds(40));
                           RunResult r;
                           r.machine = machine;
                           r.kernel = kernel;
                           r.cycles = 1;
                           r.validated = true;
                           return r;
                       });
        }
    }
    ParallelRunner par(smallConfig(), 8, &sleepy,
                       ParallelRunner::noCache());
    const auto t0 = std::chrono::steady_clock::now();
    const auto results = par.runAll();
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    EXPECT_EQ(results.size(), 15u);
    EXPECT_LT(ms, 300.0) << "8 workers should overlap the sleeps";
}

// ---------------------------------------------------------------
// Registry coverage: every (machine, kernel) pair of the study is
// registered, and unknown pairs surface as typed errors.
// ---------------------------------------------------------------

TEST(MappingRegistryTest, BuiltinCoversEveryMachineKernelPair)
{
    const MappingRegistry &reg = MappingRegistry::builtin();
    EXPECT_EQ(reg.size(),
              allMachines().size() * allKernels().size());
    for (MachineId machine : allMachines()) {
        for (KernelId kernel : allKernels()) {
            EXPECT_NE(reg.find(machine, kernel), nullptr)
                << machineName(machine) << " / " << kernelName(kernel);
        }
    }
    EXPECT_EQ(reg.registeredPairs().size(), reg.size());
}

TEST(MappingRegistryTest, UnknownPairIsATypedError)
{
    const MappingRegistry empty;
    EXPECT_EQ(empty.find(MachineId::Viram, KernelId::Cslc), nullptr);

    Runner runner(smallConfig(), &empty);
    const RunOutcome outcome =
        runner.tryRun(MachineId::Viram, KernelId::Cslc);
    ASSERT_TRUE(std::holds_alternative<MappingError>(outcome));
    const auto &err = std::get<MappingError>(outcome);
    EXPECT_EQ(err.machine, MachineId::Viram);
    EXPECT_EQ(err.kernel, KernelId::Cslc);
    EXPECT_NE(err.message.find("no kernel mapping registered"),
              std::string::npos);
    EXPECT_NE(err.message.find(machineName(MachineId::Viram)),
              std::string::npos);
    EXPECT_NE(err.message.find(kernelName(KernelId::Cslc)),
              std::string::npos);
}

TEST(MappingRegistryTest, PartialRegistryMixesResultsAndErrors)
{
    // One real mapping borrowed from the builtin table, the rest
    // missing: tryRunCells must slot each outcome by request index.
    MappingRegistry partial;
    partial.add(MachineId::Viram, KernelId::BeamSteering,
                *MappingRegistry::builtin().find(
                    MachineId::Viram, KernelId::BeamSteering));

    ParallelRunner par(smallConfig(), 2, &partial,
                       ParallelRunner::noCache());
    const auto outcomes = par.tryRunCells(
        {{MachineId::Viram, KernelId::BeamSteering},
         {MachineId::Raw, KernelId::Cslc}});
    ASSERT_EQ(outcomes.size(), 2u);
    ASSERT_TRUE(std::holds_alternative<RunResult>(outcomes[0]));
    EXPECT_TRUE(std::get<RunResult>(outcomes[0]).validated);
    ASSERT_TRUE(std::holds_alternative<MappingError>(outcomes[1]));
    EXPECT_EQ(std::get<MappingError>(outcomes[1]).machine,
              MachineId::Raw);
}

// ---------------------------------------------------------------
// Result cache: second sweep is served from cache; distinct configs
// do not collide.
// ---------------------------------------------------------------

TEST(ResultCacheTest, SecondSweepIsServedFromCache)
{
    // Wrap every builtin mapping in an invocation counter so cache
    // hits are observable as "the mapping did not run again".
    static std::atomic<unsigned> invocations{0};
    invocations = 0;
    MappingRegistry counting;
    for (auto [machine, kernel] :
         MappingRegistry::builtin().registeredPairs()) {
        const KernelMapping inner =
            *MappingRegistry::builtin().find(machine, kernel);
        counting.add(machine, kernel,
                     [inner](const StudyConfig &cfg,
                             const Workloads &work) {
                         ++invocations;
                         return inner(cfg, work);
                     });
    }

    ResultCache cache;
    ParallelRunner par(smallConfig(), 4, &counting, &cache);
    const auto first = par.runAll();
    EXPECT_EQ(invocations.load(), 15u);
    EXPECT_EQ(cache.size(), 15u);
    EXPECT_EQ(cache.misses(), 15u);

    const auto second = par.runAll();
    EXPECT_EQ(invocations.load(), 15u) << "cache should have served";
    EXPECT_EQ(cache.hits(), 15u);
    EXPECT_EQ(first, second);
}

TEST(ResultCacheTest, DistinctConfigsDoNotCollide)
{
    ResultCache cache;
    StudyConfig a = smallConfig();
    StudyConfig b = smallConfig();
    b.seed = a.seed + 1;
    ASSERT_NE(studyConfigHash(a), studyConfigHash(b));

    RunResult r;
    r.machine = MachineId::Viram;
    r.kernel = KernelId::Cslc;
    r.cycles = 123;
    cache.put(r, studyConfigHash(a));
    EXPECT_TRUE(cache.get(r.machine, r.kernel, studyConfigHash(a))
                    .has_value());
    EXPECT_FALSE(cache.get(r.machine, r.kernel, studyConfigHash(b))
                     .has_value());
}

// ---------------------------------------------------------------
// Result cache LRU bound: entry and byte limits evict the least
// recently used cell first.
// ---------------------------------------------------------------

/** A synthetic RunResult whose breakdown partitions its cycles. */
RunResult
fakeResult(MachineId machine, KernelId kernel, std::uint64_t cycles)
{
    RunResult r;
    r.machine = machine;
    r.kernel = kernel;
    r.cycles = cycles;
    r.breakdown.cycles = {cycles, 0, 0, 0, 0};
    r.breakdown.total = cycles;
    r.validated = true;
    r.notes = {{"utilization", 0.5}};
    return r;
}

TEST(ResultCacheLru, EvictsLeastRecentlyUsedEntryFirst)
{
    study::ResultCache cache(study::CacheCapacity{3, 0});
    const std::uint64_t hash = 7;

    const auto a =
        fakeResult(MachineId::PpcScalar, KernelId::CornerTurn, 1);
    const auto b = fakeResult(MachineId::PpcScalar, KernelId::Cslc, 2);
    const auto c = fakeResult(MachineId::Viram, KernelId::CornerTurn, 3);
    cache.put(a, hash);
    cache.put(b, hash);
    cache.put(c, hash);
    EXPECT_EQ(cache.size(), 3u);
    EXPECT_EQ(cache.evictions(), 0u);

    // Touch 'a' so 'b' becomes the LRU entry, then overflow.
    ASSERT_TRUE(cache.get(a.machine, a.kernel, hash).has_value());
    cache.put(fakeResult(MachineId::Raw, KernelId::BeamSteering, 4),
              hash);

    EXPECT_EQ(cache.size(), 3u);
    EXPECT_EQ(cache.evictions(), 1u);
    EXPECT_FALSE(cache.get(b.machine, b.kernel, hash).has_value());
    EXPECT_TRUE(cache.get(a.machine, a.kernel, hash).has_value());
    EXPECT_TRUE(cache.get(c.machine, c.kernel, hash).has_value());
}

TEST(ResultCacheLru, ByteBoundEvictsWhenEntriesAreUnlimited)
{
    study::ResultCache probe;
    probe.put(fakeResult(MachineId::PpcScalar, KernelId::CornerTurn, 1),
              1);
    const std::size_t oneEntry = probe.approxBytes();
    ASSERT_GT(oneEntry, 0u);

    // Room for two entries, not three.
    study::ResultCache cache(
        study::CacheCapacity{0, 2 * oneEntry + oneEntry / 2});
    cache.put(fakeResult(MachineId::PpcScalar, KernelId::CornerTurn, 1),
              1);
    cache.put(fakeResult(MachineId::PpcScalar, KernelId::Cslc, 2), 1);
    cache.put(fakeResult(MachineId::Viram, KernelId::CornerTurn, 3), 1);

    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.evictions(), 1u);
    EXPECT_LE(cache.approxBytes(), 2 * oneEntry + oneEntry / 2);
    EXPECT_FALSE(cache
                     .get(MachineId::PpcScalar, KernelId::CornerTurn, 1)
                     .has_value());
}

TEST(ResultCacheLru, ShrinkingCapacityEvictsImmediately)
{
    study::ResultCache cache;
    for (unsigned i = 0; i < 4; ++i) {
        cache.put(fakeResult(MachineId::PpcScalar,
                             KernelId::CornerTurn, i + 1),
                  i);
    }
    EXPECT_EQ(cache.size(), 4u);
    cache.setCapacity(study::CacheCapacity{2, 0});
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.evictions(), 2u);
    // The newest entries (hashes 2 and 3) survive.
    EXPECT_TRUE(cache.get(MachineId::PpcScalar, KernelId::CornerTurn, 3)
                    .has_value());
    EXPECT_FALSE(
        cache.get(MachineId::PpcScalar, KernelId::CornerTurn, 0)
            .has_value());
}

TEST(ConfigHash, SensitiveToEveryWorkloadField)
{
    const StudyConfig base = smallConfig();
    auto mutated = [&](auto &&mutate) {
        StudyConfig cfg = base;
        mutate(cfg);
        return studyConfigHash(cfg);
    };
    const std::uint64_t h = studyConfigHash(base);
    EXPECT_NE(h, mutated([](StudyConfig &c) { c.matrixSize = 256; }));
    EXPECT_NE(h, mutated([](StudyConfig &c) { c.seed = 99; }));
    EXPECT_NE(h, mutated([](StudyConfig &c) { c.beam.dwells = 3; }));
    EXPECT_NE(h,
              mutated([](StudyConfig &c) { c.jammerBins = {64}; }));
    EXPECT_NE(h, mutated([](StudyConfig &c) { c.cslc.subBands = 4; }));
    EXPECT_EQ(h, studyConfigHash(base)) << "hash must be stable";
}

// ---------------------------------------------------------------
// Result sink: structured JSON document.
// ---------------------------------------------------------------

TEST(ResultSinkTest, EmitsWellFormedDocument)
{
    const StudyConfig cfg = smallConfig();
    ParallelRunner par(cfg, 2, nullptr, ParallelRunner::noCache());

    ResultSink sink(cfg);
    sink.add(par.runCells({{MachineId::Raw, KernelId::Cslc},
                           {MachineId::Viram, KernelId::CornerTurn}}));
    sink.metadata("threads", "2");
    EXPECT_EQ(sink.size(), 2u);

    std::ostringstream os;
    sink.writeJson(os);
    const std::string s = os.str();
    EXPECT_NE(s.find("\"schema\": \"triarch.results.v1\""),
              std::string::npos);
    EXPECT_NE(s.find("\"machine\": \"Raw\""), std::string::npos);
    EXPECT_NE(s.find("\"kernel_id\": \"ct\""), std::string::npos);
    EXPECT_NE(s.find("\"threads\": \"2\""), std::string::npos);
    EXPECT_NE(s.find("\"measured_unbalanced\""), std::string::npos);
    EXPECT_NE(s.find("\"validated\": true"), std::string::npos);
}

} // namespace
} // namespace triarch::study
