/**
 * @file
 * Declarative command-line parsing shared by every triarch binary
 * (the bench harness, bench_diff and micro_host). A binary declares
 * its flags with value()/number()/real()/toggle(), then hands argv to
 * parse(); usage text, '--flag=value' splitting, and the numeric
 * checks live here once.
 *
 * Error contract (kept byte-for-byte with the original bench
 * harness, which tests/test_bench.cc pins down):
 *   - a flag missing its value, a value handed to a value-less flag,
 *     or a malformed/overflowing number prints one line to stderr and
 *     exits with status 2 (a hard std::exit so death tests observe
 *     it);
 *   - an unknown option prints an error plus the usage text to
 *     stderr and makes parse() return 2;
 *   - '--help'/'-h' prints usage to stdout and makes parse()
 *     return 0;
 *   - otherwise parse() returns nothing and the caller proceeds.
 */

#ifndef TRIARCH_STUDY_CLI_OPTIONS_HH
#define TRIARCH_STUDY_CLI_OPTIONS_HH

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <limits>
#include <optional>
#include <string>
#include <vector>

namespace triarch::study
{

/** Split "a,b,c" into tokens, dropping empties. */
std::vector<std::string> splitList(const std::string &arg);

/** ASCII lowercase copy. */
std::string lowered(std::string s);

/**
 * Make sure an output path's parent directory exists before any
 * simulation time is spent: "--stats out/run1/stats.json" in a fresh
 * checkout creates out/run1/ on demand, and a parent that cannot be
 * created (e.g. a path component is a regular file) is a usage error
 * reported up front with exit 2, not an fopen failure after the run.
 */
void ensureParentDir(const char *flag, const std::string &path,
                     const char *prog);

class CliOptions
{
  public:
    /** Handlers return 0 to continue or an exit code (the handler
     *  prints its own diagnostic, prefixed with prog()). */
    using ValueHandler = std::function<int(const std::string &)>;
    using NumberHandler = std::function<int(std::uint64_t)>;
    using RealHandler = std::function<int(double)>;
    using ToggleHandler = std::function<int()>;

    /**
     * @param description one-line summary shown in the usage header
     * @param fallback_prog program name when argv[0] is absent
     */
    CliOptions(const char *description,
               const char *fallback_prog = "bench");

    /** Declare a flag that takes a string value. */
    void value(const std::string &name, const std::string &argspec,
               const std::string &help, ValueHandler handler);

    /** Declare a flag that takes a non-negative number <= max_value. */
    void number(const std::string &name, const std::string &argspec,
                const std::string &help, std::uint64_t max_value,
                NumberHandler handler);

    /** Declare a flag that takes a finite non-negative decimal. */
    void real(const std::string &name, const std::string &argspec,
              const std::string &help, RealHandler handler);

    /** Declare a value-less flag. */
    void toggle(const std::string &name, const std::string &help,
                ToggleHandler handler);

    /** Install the standard --log-level flag (quiet/warn/inform/
     *  debug), wired to sim/logging's global level. */
    void logLevelFlag();

    /**
     * Parse argv. Returns an exit code when the program should stop
     * (0 after --help, 2 on a usage error), or nullopt to proceed.
     * Unrecoverable value/number errors exit(2) directly.
     */
    std::optional<int> parse(int argc, char **argv);

    /** Write "prog — description" plus one line per flag. */
    void usage(std::ostream &os) const;

    /** argv[0] as seen by the last parse() (fallback before that). */
    const char *prog() const { return progName.c_str(); }

  private:
    enum class Kind { Value, Number, Real, Toggle };

    struct Flag
    {
        std::string name;
        std::string argspec;
        std::string help;
        Kind kind;
        ValueHandler onValue;
        NumberHandler onNumber;
        RealHandler onReal;
        ToggleHandler onToggle;
        std::uint64_t maxValue =
            std::numeric_limits<std::uint64_t>::max();
    };

    const Flag *find(const std::string &name) const;

    std::string description;
    std::string progName;
    std::vector<Flag> flags;
};

} // namespace triarch::study

#endif // TRIARCH_STUDY_CLI_OPTIONS_HH
