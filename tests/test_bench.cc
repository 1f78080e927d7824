/**
 * @file
 * Regression tests for the shared bench CLI harness and the id
 * lookup tables: numeric flags reject negative, overflowing, and
 * truncating values instead of silently wrapping; value-less flags
 * reject inline values; the trace file is written even when the
 * bench body fails; --machines/--kernels either narrow the work or,
 * where a bench needs the whole grid, exit 2; --json/--hw on a bench
 * that ran no cell exit 2 instead of writing an empty document;
 * fuzz_sweep refuses --hw/--stats, whose cell labels cannot tell its
 * many configs apart; the
 * claims driver shows only rows its selection covers and exits 2 on
 * a selection that matches none; and out-of-range KernelId/MachineId
 * lookups panic with the numeric value instead of reading past the
 * static name arrays.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_main.hh"
#include "sim/hw_report.hh"
#include "study/claims.hh"
#include "study/experiment.hh"
#include "study/machine_info.hh"
#include "study/report.hh"

namespace triarch
{
namespace
{

/** Run benchMain over the given args with a trivial passing body. */
int
runBench(std::vector<std::string> args,
         bench::BenchBody body = [](bench::BenchContext &) {
             return 0;
         })
{
    std::vector<char *> argv;
    args.insert(args.begin(), "test_bench");
    argv.reserve(args.size());
    for (std::string &a : args)
        argv.push_back(a.data());
    return bench::benchMain(static_cast<int>(argv.size()),
                            argv.data(), "test bench", body);
}

// ---------------------------------------------------------------
// Numeric flag parsing.
// ---------------------------------------------------------------

TEST(BenchCliNumbers, RejectsNegativeThreads)
{
    // Pre-fix, strtoull wrapped "-1" to 2^64-1 and the cast
    // truncated it to 4294967295 worker threads.
    EXPECT_EXIT(runBench({"--threads", "-1"}),
                testing::ExitedWithCode(2),
                "--threads needs a non-negative number");
}

TEST(BenchCliNumbers, RejectsOverflowingValues)
{
    // > 2^64: strtoull reports ERANGE, which was ignored pre-fix.
    EXPECT_EXIT(runBench({"--seed", "99999999999999999999"}),
                testing::ExitedWithCode(2), "out of range");
    // Fits in 64 bits but not in unsigned --threads.
    EXPECT_EXIT(runBench({"--threads", "5000000000"}),
                testing::ExitedWithCode(2), "out of range");
}

TEST(BenchCliNumbers, RejectsNonNumericValues)
{
    EXPECT_EXIT(runBench({"--threads", "four"}),
                testing::ExitedWithCode(2),
                "needs a non-negative number");
    EXPECT_EXIT(runBench({"--threads", "7x"}),
                testing::ExitedWithCode(2),
                "needs a non-negative number");
    EXPECT_EXIT(runBench({"--threads", "+3"}),
                testing::ExitedWithCode(2),
                "needs a non-negative number");
}

TEST(BenchCliNumbers, ZeroThreadsMeansHardwareConcurrency)
{
    // 0 is the documented "use hardware concurrency" value; it must
    // parse and reach the body unchanged.
    EXPECT_EQ(runBench({"--threads", "0"},
                       [](bench::BenchContext &ctx) {
                           return ctx.options().threads == 0 ? 0 : 9;
                       }),
              0);
}

TEST(BenchCliNumbers, AcceptsInlineNumericValues)
{
    EXPECT_EQ(runBench({"--threads=3", "--seed=17"},
                       [](bench::BenchContext &ctx) {
                           return ctx.options().threads == 3
                                          && ctx.options().seed == 17
                                      ? 0
                                      : 9;
                       }),
              0);
}

// ---------------------------------------------------------------
// Inline values on value-less flags.
// ---------------------------------------------------------------

TEST(BenchCliInline, RejectsInlineValueOnCsv)
{
    // Pre-fix, "--csv=yes" was silently treated as bare "--csv".
    EXPECT_EXIT(runBench({"--csv=yes"}), testing::ExitedWithCode(2),
                "--csv does not take a value");
}

TEST(BenchCliInline, RejectsInlineValueOnHelp)
{
    EXPECT_EXIT(runBench({"--help=x"}), testing::ExitedWithCode(2),
                "--help does not take a value");
}

TEST(BenchCliInline, BareCsvStillWorks)
{
    EXPECT_EQ(runBench({"--csv"},
                       [](bench::BenchContext &ctx) {
                           return ctx.options().csv ? 0 : 9;
                       }),
              0);
}

// ---------------------------------------------------------------
// Trace written on failure.
// ---------------------------------------------------------------

TEST(BenchTrace, WrittenEvenWhenBodyFails)
{
    const std::string path =
        testing::TempDir() + "/triarch_failed_trace.json";
    std::remove(path.c_str());

    testing::internal::CaptureStdout();
    const int rc = runBench({"--trace", path},
                            [](bench::BenchContext &) { return 3; });
    const std::string out = testing::internal::GetCapturedStdout();

    EXPECT_EQ(rc, 3);
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << "trace file missing: " << path;
    std::stringstream content;
    content << in.rdbuf();
    EXPECT_NE(content.str().find("traceEvents"), std::string::npos);
    // The harness notes the failure next to the trace path.
    EXPECT_NE(out.find("trace written to " + path),
              std::string::npos);
    EXPECT_NE(out.find("failed with exit code 3"),
              std::string::npos);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------
// --machines/--kernels are honoured or rejected, never ignored.
// ---------------------------------------------------------------

TEST(BenchSelection, GridBenchesRejectNarrowingFilters)
{
    // Figures 8/9, Table 4 and the energy ablation need every cell;
    // a narrowed selection exits 2 instead of running all 15 anyway.
    const bench::BenchBody grid = [](bench::BenchContext &ctx) {
        ctx.allResults();
        return 0;
    };
    EXPECT_EXIT(runBench({"--machines", "imagine"}, grid),
                testing::ExitedWithCode(2),
                "needs the full 5x3 grid");
    EXPECT_EXIT(runBench({"--kernels", "bs"}, grid),
                testing::ExitedWithCode(2),
                "needs the full 5x3 grid");
}

TEST(BenchSelection, Table3RunsAndShowsOnlySelectedCells)
{
    EXPECT_EQ(runBench({"--machines", "imagine", "--kernels", "bs"},
                       [](bench::BenchContext &ctx) {
                           const auto &results = ctx.results();
                           std::ostringstream os;
                           study::buildTable3(results,
                                              ctx.options().machines,
                                              ctx.options().kernels)
                               .renderCsv(os);
                           const std::string csv = os.str();
                           const bool narrow =
                               results.size() == 1
                               && csv.find("Imagine") != std::string::npos
                               && csv.find("Raw") == std::string::npos
                               && csv.find("CSLC") == std::string::npos;
                           return narrow ? 0 : 9;
                       }),
              0);
}

// ---------------------------------------------------------------
// Document flags on a bench that runs no cell.
// ---------------------------------------------------------------

TEST(BenchDocuments, JsonAndHwNeedABenchThatRunsCells)
{
    // Table 1/2 and Figures 1-3 print machine configs and run no
    // cell; an empty document with exit 0 would hide that. The same
    // holds for the --stats counters document.
    hw::HwRegistry::global().clear();
    const std::string dir = testing::TempDir();
    for (const char *flag : {"--json", "--hw", "--stats"}) {
        const std::string path = dir + "/triarch_no_cells.json";
        std::remove(path.c_str());
        testing::internal::CaptureStderr();
        EXPECT_EQ(runBench({flag, path}), 2) << flag;
        const std::string err = testing::internal::GetCapturedStderr();
        EXPECT_NE(err.find(std::string(flag) + " has nothing to write"),
                  std::string::npos)
            << err;
        EXPECT_FALSE(std::ifstream(path).good()) << flag;
    }
}

TEST(BenchDocuments, FuzzSweepRefusesHwAndStats)
{
    // The registry documents label a cell machine.kernel under one
    // config hash; the sweep runs ~90 configs per cell, so it must
    // refuse them up front rather than write mislabelled counters.
    const std::string dir = testing::TempDir();
    const std::string path = dir + "/triarch_fuzz_doc.json";
    const std::string errPath = dir + "/triarch_fuzz_err.txt";
    for (const char *flag : {"--hw", "--stats"}) {
        std::remove(path.c_str());
        const std::string cmd = std::string(TRIARCH_FUZZ_SWEEP)
                                + " --seed 11 " + flag + " " + path
                                + " > /dev/null 2> " + errPath;
        const int status = std::system(cmd.c_str());
        ASSERT_TRUE(WIFEXITED(status)) << flag;
        EXPECT_EQ(WEXITSTATUS(status), 2) << flag;
        std::stringstream err;
        err << std::ifstream(errPath).rdbuf();
        EXPECT_NE(err.str().find(std::string(flag) + " is not supported"),
                  std::string::npos)
            << err.str();
        EXPECT_FALSE(std::ifstream(path).good()) << flag;
    }
    std::remove(errPath.c_str());
}

// ---------------------------------------------------------------
// The claims driver honours --machines/--kernels.
// ---------------------------------------------------------------

int
claimsBody(bench::BenchContext &ctx)
{
    return study::runClaims(ctx.runner(), ctx.options().machines,
                            ctx.options().kernels, ctx.options().csv,
                            ctx.sink(), std::cout);
}

TEST(BenchSelection, ClaimsShowOnlyRowsTheSelectionCovers)
{
    testing::internal::CaptureStdout();
    EXPECT_EQ(runBench({"--machines", "imagine", "--kernels", "bs",
                        "--csv"},
                       claimsBody),
              0);
    const std::string out = testing::internal::GetCapturedStdout();
    EXPECT_NE(out.find("imagine.bs.srf_resident_gain"),
              std::string::npos);
    // Rows with no Table-3 kernel follow the machine selection.
    EXPECT_NE(out.find("imagine.media.alu_utilization"),
              std::string::npos);
    EXPECT_EQ(out.find("imagine.cslc."), std::string::npos);
    EXPECT_EQ(out.find("raw."), std::string::npos);
}

TEST(BenchSelection, ClaimsSelectionMatchingNoRowExits2)
{
    // VIRAM's rows are all corner-turn rows; no row runs VIRAM on
    // beam steering, and the AltiVec gains need both G4 machines.
    testing::internal::CaptureStderr();
    EXPECT_EQ(runBench({"--machines", "viram", "--kernels", "bs"},
                       claimsBody),
              2);
    EXPECT_EQ(runBench({"--machines", "altivec", "--kernels", "cslc"},
                       claimsBody),
              2);
    EXPECT_NE(testing::internal::GetCapturedStderr().find(
                  "no claim row"),
              std::string::npos);
}

// ---------------------------------------------------------------
// Out-of-range id lookups.
// ---------------------------------------------------------------

TEST(IdLookups, KernelNamePanicsOutOfRange)
{
    EXPECT_DEATH(study::kernelName(static_cast<study::KernelId>(7)),
                 "KernelId out of range: 7");
    EXPECT_DEATH(study::kernelToken(static_cast<study::KernelId>(99)),
                 "KernelId out of range: 99");
}

TEST(IdLookups, MachineTokenPanicsOutOfRange)
{
    EXPECT_DEATH(
        study::machineToken(static_cast<study::MachineId>(42)),
        "MachineId out of range: 42");
}

TEST(IdLookups, ValidIdsStillResolve)
{
    EXPECT_EQ(study::kernelToken(study::KernelId::BeamSteering), "bs");
    EXPECT_EQ(study::kernelName(study::KernelId::Cslc), "CSLC");
    EXPECT_EQ(study::machineToken(study::MachineId::Raw), "raw");
}

} // namespace
} // namespace triarch
