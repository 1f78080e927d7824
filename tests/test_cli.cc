/**
 * @file
 * Tests for study::CliOptions, the declarative flag parser shared by
 * the bench harness, bench_diff and micro_host. test_bench.cc pins
 * the end-to-end bench contract (death tests through a real main);
 * this file exercises the class directly: handler dispatch, the
 * '--flag=value' form, unknown-option and --help return codes, the
 * generated usage text, and the exit(2) paths for malformed values.
 * It also drives bench_diff's flag set, so a malformed gate knob can
 * never silently disable a check, micro_host's cell selection, its
 * --pin refusal (through the built binary), and the retired
 * --raw-stepper and --mem-model flags, now unknown everywhere.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <vector>

#include "bench_main.hh"
#include "study/bench_report.hh"
#include "study/cli_options.hh"
#include "study/host_measure.hh"

namespace
{

using triarch::study::BenchDiffArgs;
using triarch::study::CliOptions;

/** parse() over a brace-list of arguments (argv[0] included). */
std::optional<int>
parseArgs(CliOptions &cli, std::vector<std::string> args)
{
    args.insert(args.begin(), "testprog");
    std::vector<char *> argv;
    argv.reserve(args.size());
    for (std::string &a : args)
        argv.push_back(a.data());
    return cli.parse(static_cast<int>(argv.size()), argv.data());
}

TEST(CliOptions, DispatchesValueNumberAndToggleHandlers)
{
    std::string path;
    std::uint64_t count = 0;
    bool verbose = false;

    CliOptions cli("a test program", "testprog");
    cli.value("--out", "PATH", "output file", [&](const std::string &v) {
        path = v;
        return 0;
    });
    cli.number("--count", "N", "how many", 1000, [&](std::uint64_t n) {
        count = n;
        return 0;
    });
    cli.toggle("--verbose", "say more", [&]() {
        verbose = true;
        return 0;
    });

    const auto rc = parseArgs(
        cli, {"--out", "a/b.json", "--count", "42", "--verbose"});
    EXPECT_FALSE(rc.has_value()) << "successful parse proceeds";
    EXPECT_EQ(path, "a/b.json");
    EXPECT_EQ(count, 42u);
    EXPECT_TRUE(verbose);
}

TEST(CliOptions, AcceptsTheEqualsForm)
{
    std::string path;
    std::uint64_t count = 0;

    CliOptions cli("a test program", "testprog");
    cli.value("--out", "PATH", "output file", [&](const std::string &v) {
        path = v;
        return 0;
    });
    cli.number("--count", "N", "how many", 1000, [&](std::uint64_t n) {
        count = n;
        return 0;
    });

    EXPECT_FALSE(
        parseArgs(cli, {"--out=x=y.json", "--count=7"}).has_value());
    EXPECT_EQ(path, "x=y.json") << "only the first '=' splits";
    EXPECT_EQ(count, 7u);
}

TEST(CliOptions, HandlerErrorsStopParsingWithTheirCode)
{
    int calls = 0;
    CliOptions cli("a test program", "testprog");
    cli.value("--mode", "M", "a mode", [&](const std::string &v) {
        ++calls;
        return v == "good" ? 0 : 2;
    });

    EXPECT_EQ(parseArgs(cli, {"--mode", "bad", "--mode", "good"}),
              std::optional<int>(2));
    EXPECT_EQ(calls, 1) << "parsing stops at the failing handler";
}

TEST(CliOptions, UnknownOptionReturnsTwoAndPrintsUsage)
{
    CliOptions cli("a test program", "testprog");
    testing::internal::CaptureStderr();
    const auto rc = parseArgs(cli, {"--bogus"});
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_EQ(rc, std::optional<int>(2));
    EXPECT_NE(err.find("unknown option '--bogus'"), std::string::npos);
    EXPECT_NE(err.find("Options:"), std::string::npos);
}

TEST(CliOptions, HelpPrintsUsageAndReturnsZero)
{
    CliOptions cli("a test program", "testprog");
    cli.toggle("--quick", "go fast", [] { return 0; });

    testing::internal::CaptureStdout();
    const auto rc = parseArgs(cli, {"--help"});
    const std::string out = testing::internal::GetCapturedStdout();
    EXPECT_EQ(rc, std::optional<int>(0));
    EXPECT_NE(out.find("testprog — a test program"), std::string::npos);
    EXPECT_NE(out.find("--quick"), std::string::npos);

    testing::internal::CaptureStdout();
    EXPECT_EQ(parseArgs(cli, {"-h"}), std::optional<int>(0));
    testing::internal::GetCapturedStdout();
}

TEST(CliOptions, UsageListsEveryFlagPlusHelpAndTheEqualsNote)
{
    CliOptions cli("does things", "prog");
    cli.value("--out", "PATH", "output file", [](const std::string &) {
        return 0;
    });
    cli.number("--count", "N", "how many", 10, [](std::uint64_t) {
        return 0;
    });
    cli.toggle("--verbose", "say more", [] { return 0; });

    std::ostringstream os;
    cli.usage(os);
    const std::string text = os.str();
    EXPECT_NE(text.find("prog — does things"), std::string::npos);
    EXPECT_NE(text.find("  --out PATH"), std::string::npos);
    EXPECT_NE(text.find("  --count N"), std::string::npos);
    EXPECT_NE(text.find("  --verbose"), std::string::npos);
    EXPECT_NE(text.find("  --help"), std::string::npos);
    EXPECT_NE(text.find("'--flag value' and '--flag=value'"),
              std::string::npos);

    // Help columns align: every flag's description starts at the
    // same offset (column 22) when the head fits.
    EXPECT_NE(text.find("  --out PATH          output file"),
              std::string::npos);
    EXPECT_NE(text.find("  --verbose           say more"),
              std::string::npos);
}

TEST(CliOptionsDeath, MalformedValuesExitWithStatusTwo)
{
    CliOptions cli("a test program", "testprog");
    cli.value("--out", "PATH", "output file",
              [](const std::string &) { return 0; });
    cli.number("--count", "N", "how many", 100,
               [](std::uint64_t) { return 0; });
    cli.real("--ratio", "F", "a ratio", [](double) { return 0; });
    cli.toggle("--verbose", "say more", [] { return 0; });

    EXPECT_EXIT(parseArgs(cli, {"--out"}),
                testing::ExitedWithCode(2), "--out needs a value");
    EXPECT_EXIT(parseArgs(cli, {"--count", "-1"}),
                testing::ExitedWithCode(2), "non-negative number");
    EXPECT_EXIT(parseArgs(cli, {"--count", "12zebras"}),
                testing::ExitedWithCode(2), "non-negative number");
    EXPECT_EXIT(parseArgs(cli, {"--count", "101"}),
                testing::ExitedWithCode(2),
                "out of range \\(max 100\\)");
    EXPECT_EXIT(parseArgs(cli, {"--verbose=yes"}),
                testing::ExitedWithCode(2), "does not take a value");
    for (const char *bad : {"abc", "-1", "+1", "1.5x", "", "nan", "inf",
                            "1e999"}) {
        EXPECT_EXIT(parseArgs(cli, {"--ratio", bad}),
                    testing::ExitedWithCode(2),
                    "--ratio needs a non-negative decimal")
            << "'" << bad << "'";
    }
}

/** parseBenchDiffArgs() over a brace-list of arguments. */
std::optional<int>
parseDiffArgs(std::vector<std::string> args, BenchDiffArgs *out)
{
    args.insert(args.begin(), "bench_diff");
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    return triarch::study::parseBenchDiffArgs(
        static_cast<int>(argv.size()), argv.data(), out);
}

TEST(BenchDiffCli, ParsesEveryGateKnob)
{
    BenchDiffArgs args;
    EXPECT_FALSE(parseDiffArgs({"--baseline", "b.json", "--report=r.json",
                                "--seed", "7", "--threads", "3",
                                "--paper-factor", "0",
                                "--host-gate=1.5"},
                               &args)
                     .has_value());
    EXPECT_EQ(args.baselinePath, "b.json");
    EXPECT_EQ(args.reportPath, "r.json");
    EXPECT_EQ(args.seed, 7u);
    EXPECT_EQ(args.threads, 3u);
    EXPECT_EQ(args.paperFactor, 0.0);
    EXPECT_EQ(args.hostGate, 1.5);
}

TEST(BenchDiffCli, UsageErrorsReturnTwo)
{
    testing::internal::CaptureStderr();
    BenchDiffArgs args;
    EXPECT_EQ(parseDiffArgs({"--report", "r.json"}, &args), 2)
        << "--baseline is required";
    EXPECT_EQ(parseDiffArgs({"--baseline", "b", "--host-gate", "0"},
                            &args),
              2);
    EXPECT_EQ(parseDiffArgs({"--baseline", "b", "--tolerance", "0.01"},
                            &args),
              2)
        << "cycles are gated exactly; there is no tolerance knob";
    testing::internal::GetCapturedStderr();
}

TEST(BenchDiffCliDeath, MalformedNumbersExitWithStatusTwo)
{
    BenchDiffArgs args;
    EXPECT_EXIT(parseDiffArgs({"--baseline", "b", "--paper-factor", "abc"},
                              &args),
                testing::ExitedWithCode(2),
                "--paper-factor needs a non-negative decimal");
    EXPECT_EXIT(parseDiffArgs({"--baseline", "b", "--seed", "xyz"},
                              &args),
                testing::ExitedWithCode(2),
                "--seed needs a non-negative number");
    EXPECT_EXIT(parseDiffArgs({"--baseline", "b", "--threads", "-1"},
                              &args),
                testing::ExitedWithCode(2),
                "--threads needs a non-negative number");
}

int runHarness(std::vector<std::string> args);

/** parseMicroHostArgs over a brace-list of arguments. */
std::optional<int>
parseHostArgs(std::vector<std::string> args,
              triarch::study::MicroHostArgs *out)
{
    args.insert(args.begin(), "micro_host");
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    return triarch::study::parseMicroHostArgs(
        static_cast<int>(argv.size()), argv.data(), out);
}

TEST(MicroHostCli, KernelsNarrowTheGridLikeMachines)
{
    using triarch::study::Cell;
    using triarch::study::KernelId;
    using triarch::study::MachineId;
    using triarch::study::MicroHostArgs;

    MicroHostArgs all;
    EXPECT_FALSE(parseHostArgs({}, &all).has_value());
    EXPECT_EQ(all.cells, triarch::study::allCells());

    MicroHostArgs rawCt;
    EXPECT_FALSE(parseHostArgs({"--machines", "raw", "--kernels=ct",
                                "--reps", "30", "--pin", "2"},
                               &rawCt)
                     .has_value());
    EXPECT_EQ(rawCt.cells, (std::vector<Cell>{
                               {MachineId::Raw, KernelId::CornerTurn}}));
    EXPECT_EQ(rawCt.measure.repetitions, 30u);
    EXPECT_EQ(rawCt.measure.pinCpu, 2);

    MicroHostArgs twoKernels;
    EXPECT_FALSE(
        parseHostArgs({"--kernels", "cslc,bs"}, &twoKernels).has_value());
    EXPECT_EQ(twoKernels.cells.size(), 10u);
    for (const Cell &cell : twoKernels.cells)
        EXPECT_NE(cell.kernel, KernelId::CornerTurn);

    // The harness spellings: "all" and display names in any case.
    MicroHostArgs everyMachine;
    EXPECT_FALSE(
        parseHostArgs({"--machines", "all"}, &everyMachine).has_value());
    EXPECT_EQ(everyMachine.cells, triarch::study::allCells());
    // A repeated name selects its cells once.
    MicroHostArgs viram;
    EXPECT_FALSE(parseHostArgs({"--machines", "VIRAM,viram", "--kernels",
                                "BeamSteering", "--kernels=bs"},
                               &viram)
                     .has_value());
    EXPECT_EQ(viram.cells, (std::vector<Cell>{
                               {MachineId::Viram, KernelId::BeamSteering}}));
}

TEST(MicroHostCli, UnknownKernelOrEmptySelectionReturnsTwo)
{
    testing::internal::CaptureStderr();
    triarch::study::MicroHostArgs args;
    EXPECT_EQ(parseHostArgs({"--kernels", "fft"}, &args), 2);
    EXPECT_EQ(parseHostArgs({"--machines", "cray"}, &args), 2);
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("micro_host: unknown kernel 'fft'"),
              std::string::npos)
        << err;
    EXPECT_NE(err.find("micro_host: unknown machine 'cray'"),
              std::string::npos)
        << err;

    testing::internal::CaptureStderr();
    triarch::study::MicroHostArgs none;
    EXPECT_EQ(parseHostArgs({"--machines", "raw", "--kernels", ","},
                            &none),
              2);
    EXPECT_NE(testing::internal::GetCapturedStderr().find(
                  "micro_host: --kernels names no kernel"),
              std::string::npos);
}

TEST(MicroHostCli, HelpListsKernels)
{
    testing::internal::CaptureStdout();
    triarch::study::MicroHostArgs args;
    EXPECT_EQ(parseHostArgs({"--help"}, &args), 0);
    const std::string help = testing::internal::GetCapturedStdout();
    // The same selection lines as every harness binary's --help.
    testing::internal::CaptureStdout();
    EXPECT_EQ(runHarness({"--help"}), 0);
    const std::string harness = testing::internal::GetCapturedStdout();
    for (const char *flag : {"--machines a,b,...", "--kernels a,b,..."}) {
        const auto at = help.find(flag);
        ASSERT_NE(at, std::string::npos) << flag;
        const std::string line = help.substr(at, help.find('\n', at) - at);
        EXPECT_NE(harness.find(line), std::string::npos) << line;
    }
}

/** benchMain over a brace-list of arguments with a no-op body. */
int
runHarness(std::vector<std::string> args)
{
    args.insert(args.begin(), "bench");
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    return triarch::bench::benchMain(
        static_cast<int>(argv.size()), argv.data(), "test bench",
        [](triarch::bench::BenchContext &) { return 0; });
}

TEST(HarnessCli, HostStatsWithoutStatsExitsTwo)
{
    // --host-stats only adds to the --stats document; alone it would
    // record into nothing and exit 0.
    testing::internal::CaptureStderr();
    EXPECT_EQ(runHarness({"--host-stats"}), 2);
    EXPECT_NE(testing::internal::GetCapturedStderr().find(
                  "bench: --host-stats needs --stats PATH"),
              std::string::npos);
    EXPECT_FALSE(triarch::host::profilingEnabled());
}

TEST(ModelFlags, BadValueReturnsTwoInHarnessAndMicroHost)
{
    // Every binary runs the production paths only: neither the Raw
    // run loop nor the G4/VIRAM memory walk has a selector, so
    // --raw-stepper and --mem-model are unknown options in the
    // harness and in micro_host, whatever their value.
    testing::internal::CaptureStderr();
    EXPECT_EQ(runHarness({"--raw-stepper", "reference"}), 2);
    EXPECT_EQ(runHarness({"--mem-model", "reference"}), 2);
    triarch::study::MicroHostArgs args;
    EXPECT_EQ(parseHostArgs({"--raw-stepper", "reference"}, &args), 2);
    EXPECT_EQ(parseHostArgs({"--raw-stepper=event"}, &args), 2);
    EXPECT_EQ(parseHostArgs({"--mem-model", "span"}, &args), 2);
    const std::string err = testing::internal::GetCapturedStderr();
    for (const char *flag : {"--raw-stepper", "--mem-model"}) {
        EXPECT_NE(err.find("bench: unknown option '" + std::string(flag)
                           + "'"),
                  std::string::npos)
            << err;
        EXPECT_NE(err.find("micro_host: unknown option '"
                           + std::string(flag) + "'"),
                  std::string::npos)
            << err;
    }
}

TEST(ModelFlags, HelpListsNoModelFlag)
{
    testing::internal::CaptureStdout();
    EXPECT_EQ(runHarness({"--help"}), 0);
    const std::string harness = testing::internal::GetCapturedStdout();
    triarch::study::MicroHostArgs args;
    testing::internal::CaptureStdout();
    EXPECT_EQ(parseHostArgs({"--help"}, &args), 0);
    const std::string host = testing::internal::GetCapturedStdout();
    for (const char *flag : {"--raw-stepper", "--mem-model"}) {
        EXPECT_EQ(harness.find(flag), std::string::npos) << flag;
        EXPECT_EQ(host.find(flag), std::string::npos) << flag;
    }
}

TEST(MicroHostCli, FailedPinExitsTwoBeforeMeasuring)
{
    // cpu_set_t holds 1024 CPUs, so a pin to 4095 can never take; the
    // tool must say so instead of measuring unpinned.
    const std::string errPath =
        testing::TempDir() + "/triarch_micro_host_pin.txt";
    const std::string cmd = std::string(TRIARCH_MICRO_HOST)
                            + " --pin 4095 --machines imagine"
                              " --kernels bs --reps 1 > /dev/null 2> "
                            + errPath;
    const int status = std::system(cmd.c_str());
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 2);
    std::stringstream err;
    err << std::ifstream(errPath).rdbuf();
    EXPECT_NE(err.str().find("micro_host: cannot pin to CPU 4095"),
              std::string::npos)
        << err.str();
    std::remove(errPath.c_str());
}

TEST(CliHelpers, SplitListDropsEmptiesAndLoweredLowercases)
{
    using triarch::study::lowered;
    using triarch::study::splitList;

    EXPECT_EQ(splitList("a,b,c"),
              (std::vector<std::string>{"a", "b", "c"}));
    EXPECT_EQ(splitList("a,,c,"),
              (std::vector<std::string>{"a", "c"}));
    EXPECT_TRUE(splitList("").empty());
    EXPECT_EQ(lowered("ViRaM"), "viram");
}

} // namespace
