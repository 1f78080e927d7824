/**
 * @file
 * Tests for study::CliOptions, the declarative flag parser shared by
 * the bench harness, bench_diff and micro_host. test_bench.cc pins
 * the end-to-end bench contract (death tests through a real main);
 * this file exercises the class directly: handler dispatch, the
 * '--flag=value' form, unknown-option and --help return codes, the
 * generated usage text, and the exit(2) paths for malformed values.
 * It also drives bench_diff's flag set, so a malformed gate knob can
 * never silently disable a check.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "study/bench_report.hh"
#include "study/cli_options.hh"

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
