/**
 * @file
 * Tests for the experiment engine and the registry-based dispatch
 * behind it: bit-identical determinism of ParallelRunner at several
 * thread counts against direct mapping calls, full coverage of the
 * built-in MappingRegistry, the fatal unknown-pair path, result-cache
 * reuse, config hashing, and the JSON result sink.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <sstream>
#include <string>
#include <thread>

#include "sim/json.hh"
#include "study/parallel.hh"
#include "study/registry.hh"
#include "study/result_sink.hh"
#include "study/study_json.hh"

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
// Determinism: execution at any thread count is bit-identical to
// calling each mapping directly — no runner, cache or thread.
// ---------------------------------------------------------------

TEST(ParallelDeterminism, BitIdenticalToSerialAtAnyThreadCount)
{
    const StudyConfig cfg = smallConfig();
    const auto work = buildWorkloads(cfg);
    std::vector<RunResult> expect;
    for (const Cell &cell : allCells()) {
        expect.push_back(MappingRegistry::builtin().at(
            cell.machine, cell.kernel)(cfg, *work));
    }
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
// registered, and an unknown pair is fatal on the calling thread.
// ---------------------------------------------------------------

TEST(MappingRegistryTest, BuiltinCoversEveryMachineKernelPair)
{
    const MappingRegistry &reg = MappingRegistry::builtin();
    for (const Cell &cell : allCells()) {
        EXPECT_TRUE(static_cast<bool>(reg.at(cell.machine, cell.kernel)))
            << machineName(cell.machine) << " / "
            << kernelName(cell.kernel);
    }
}

TEST(MappingRegistryDeathTest, UnknownPairIsFatalOnTheCaller)
{
    const MappingRegistry empty;
    const std::string message = "no kernel mapping registered for "
                                + machineName(MachineId::Viram) + " / "
                                + kernelName(KernelId::Cslc);
    EXPECT_EXIT((void)empty.at(MachineId::Viram, KernelId::Cslc),
                ::testing::ExitedWithCode(1), message);
    EXPECT_EXIT(
        {
            ParallelRunner par(smallConfig(), 2, &empty,
                               ParallelRunner::noCache());
            (void)par.runCells({{MachineId::Viram, KernelId::Cslc},
                                {MachineId::Raw, KernelId::Cslc}});
        },
        ::testing::ExitedWithCode(1), message);
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
    for (const Cell &cell : allCells()) {
        const KernelMapping inner =
            MappingRegistry::builtin().at(cell.machine, cell.kernel);
        counting.add(cell.machine, cell.kernel,
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
    EXPECT_EQ(cache.statGroup().scalar("entries"), 15u);
    EXPECT_EQ(cache.misses(), 15u);

    const auto second = par.runAll();
    EXPECT_EQ(invocations.load(), 15u) << "cache should have served";
    EXPECT_EQ(cache.hits(), 15u);
    EXPECT_EQ(first, second);
}

TEST(ResultCacheTest, DefaultRunnersShareNoMemo)
{
    // Two runners on one config with the cache argument defaulted:
    // neither may be served from a memo the other filled.
    for (int i = 0; i < 2; ++i) {
        ParallelRunner par(smallConfig());
        par.runAll();
        EXPECT_EQ(par.statGroup().scalar("cells_run"), 15u) << i;
        EXPECT_EQ(par.statGroup().scalar("cells_cached"), 0u) << i;
    }
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
    const std::vector<RunResult> results =
        par.runCells({{MachineId::Raw, KernelId::Cslc},
                      {MachineId::Viram, KernelId::CornerTurn}});
    sink.add(results);
    sink.metadata("threads", "2");
    EXPECT_EQ(sink.size(), 2u);

    std::ostringstream os;
    sink.writeJson(os);
    std::string error;
    const auto doc = parseResultsJson(os.str(), &error);
    ASSERT_TRUE(doc.has_value()) << error;
    EXPECT_EQ(*doc, sink.document());
    EXPECT_EQ(doc->results, results);
    EXPECT_EQ(doc->configHash, studyConfigHashHex(cfg));
    EXPECT_EQ(doc->seed, cfg.seed);
    EXPECT_FALSE(doc->host.has_value());
    const RunResult *rawCslc = doc->find(MachineId::Raw, KernelId::Cslc);
    ASSERT_NE(rawCslc, nullptr);
    EXPECT_TRUE(rawCslc->measuredUnbalanced.has_value());
    EXPECT_TRUE(rawCslc->validated);

    // Metadata is free-form, so the document parser skips it; read
    // it back through the JSON reader.
    const auto root = json::parse(os.str(), &error);
    ASSERT_TRUE(root.has_value()) << error;
    const json::Value *meta = root->field("metadata");
    ASSERT_NE(meta, nullptr);
    const json::Value *threads = meta->field("threads");
    ASSERT_NE(threads, nullptr);
    EXPECT_EQ(threads->text, "2");
}

} // namespace
} // namespace triarch::study
