#include "cli_options.hh"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <sstream>

#include "sim/logging.hh"

namespace triarch::study
{

std::vector<std::string>
splitList(const std::string &arg)
{
    std::vector<std::string> tokens;
    std::istringstream is(arg);
    std::string tok;
    while (std::getline(is, tok, ',')) {
        if (!tok.empty())
            tokens.push_back(tok);
    }
    return tokens;
}

std::string
lowered(std::string s)
{
    for (char &c : s)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    return s;
}

void
ensureParentDir(const char *flag, const std::string &path,
                const char *prog)
{
    if (path.empty())
        return;
    const std::filesystem::path parent =
        std::filesystem::path(path).parent_path();
    if (parent.empty())
        return;
    std::error_code ec;
    std::filesystem::create_directories(parent, ec);
    if (ec) {
        std::cerr << prog << ": " << flag << " '" << path
                  << "': cannot create parent directory '"
                  << parent.string() << "': " << ec.message() << "\n";
        std::exit(2);
    }
}

CliOptions::CliOptions(const char *description,
                       const char *fallback_prog)
    : description(description), progName(fallback_prog)
{
}

void
CliOptions::value(const std::string &name, const std::string &argspec,
                  const std::string &help, ValueHandler handler)
{
    Flag f;
    f.name = name;
    f.argspec = argspec;
    f.help = help;
    f.kind = Kind::Value;
    f.onValue = std::move(handler);
    flags.push_back(std::move(f));
}

void
CliOptions::number(const std::string &name, const std::string &argspec,
                   const std::string &help, std::uint64_t max_value,
                   NumberHandler handler)
{
    Flag f;
    f.name = name;
    f.argspec = argspec;
    f.help = help;
    f.kind = Kind::Number;
    f.onNumber = std::move(handler);
    f.maxValue = max_value;
    flags.push_back(std::move(f));
}

void
CliOptions::real(const std::string &name, const std::string &argspec,
                 const std::string &help, RealHandler handler)
{
    Flag f;
    f.name = name;
    f.argspec = argspec;
    f.help = help;
    f.kind = Kind::Real;
    f.onReal = std::move(handler);
    flags.push_back(std::move(f));
}

void
CliOptions::toggle(const std::string &name, const std::string &help,
                   ToggleHandler handler)
{
    Flag f;
    f.name = name;
    f.help = help;
    f.kind = Kind::Toggle;
    f.onToggle = std::move(handler);
    flags.push_back(std::move(f));
}

void
CliOptions::logLevelFlag()
{
    value("--log-level", "LEVEL",
          "quiet, warn, inform, or debug (default warn)",
          [this](const std::string &raw) {
              const std::string v = lowered(raw);
              if (v == "quiet") {
                  setLogLevel(LogLevel::Quiet);
              } else if (v == "warn") {
                  setLogLevel(LogLevel::Warn);
              } else if (v == "inform") {
                  setLogLevel(LogLevel::Inform);
              } else if (v == "debug") {
                  setLogLevel(LogLevel::Debug);
              } else {
                  std::cerr << prog() << ": unknown log level '" << v
                            << "' (quiet, warn, inform, debug)\n";
                  return 2;
              }
              return 0;
          });
}

const CliOptions::Flag *
CliOptions::find(const std::string &name) const
{
    for (const Flag &f : flags) {
        if (f.name == name)
            return &f;
    }
    return nullptr;
}

void
CliOptions::usage(std::ostream &os) const
{
    os << progName << " — " << description << "\n\nOptions:\n";
    auto line = [&os](const std::string &head, const std::string &help) {
        std::string left = "  " + head;
        if (left.size() < 22)
            left.append(22 - left.size(), ' ');
        else
            left += "  ";
        os << left << help << "\n";
    };
    for (const Flag &f : flags) {
        line(f.argspec.empty() ? f.name : f.name + " " + f.argspec,
             f.help);
    }
    line("--help", "this message");
    os << "\nFlags accept both '--flag value' and '--flag=value'.\n";
}

std::optional<int>
CliOptions::parse(int argc, char **argv)
{
    if (argc > 0)
        progName = argv[0];
    const char *prog = progName.c_str();

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];

        // Accept --flag=value alongside --flag value.
        std::string inlineValue;
        bool haveInline = false;
        if (arg.size() > 2 && arg.compare(0, 2, "--") == 0) {
            if (const auto eq = arg.find('='); eq != std::string::npos) {
                inlineValue = arg.substr(eq + 1);
                arg.erase(eq);
                haveInline = true;
            }
        }

        auto needValue = [&](const std::string &flag) -> std::string {
            if (haveInline)
                return inlineValue;
            if (i + 1 >= argc) {
                std::cerr << prog << ": " << flag
                          << " needs a value\n";
                std::exit(2);
            }
            return argv[++i];
        };

        // Value-less flags must not be handed one via --flag=value.
        auto noValue = [&](const std::string &flag) {
            if (haveInline) {
                std::cerr << prog << ": " << flag
                          << " does not take a value (got '"
                          << inlineValue << "')\n";
                std::exit(2);
            }
        };

        auto needNumber = [&](const std::string &flag,
                              std::uint64_t maxValue) -> std::uint64_t {
            const std::string v = needValue(flag);
            // strtoull wraps negative input ("-1" parses as 2^64-1),
            // so any non-digit lead byte is rejected up front.
            if (v.empty()
                || !std::isdigit(static_cast<unsigned char>(v[0]))) {
                std::cerr << prog << ": " << flag
                          << " needs a non-negative number, got '"
                          << v << "'\n";
                std::exit(2);
            }
            errno = 0;
            char *end = nullptr;
            const std::uint64_t n = std::strtoull(v.c_str(), &end, 10);
            if (end == v.c_str() || *end != '\0') {
                std::cerr << prog << ": " << flag
                          << " needs a non-negative number, got '"
                          << v << "'\n";
                std::exit(2);
            }
            if (errno == ERANGE || n > maxValue) {
                std::cerr << prog << ": " << flag << " value '" << v
                          << "' is out of range (max " << maxValue
                          << ")\n";
                std::exit(2);
            }
            return n;
        };

        auto needReal = [&](const std::string &flag) -> double {
            const std::string v = needValue(flag);
            // A digit or '.' first rules out signs, "nan" and "inf".
            const bool leadOk =
                !v.empty()
                && (std::isdigit(static_cast<unsigned char>(v[0]))
                    || v[0] == '.');
            errno = 0;
            char *end = nullptr;
            const double d = leadOk ? std::strtod(v.c_str(), &end) : 0.0;
            if (!leadOk || end == v.c_str() || *end != '\0'
                || errno == ERANGE) {
                std::cerr << prog << ": " << flag
                          << " needs a non-negative decimal, got '"
                          << v << "'\n";
                std::exit(2);
            }
            return d;
        };

        if (arg == "--help" || arg == "-h") {
            noValue("--help");
            usage(std::cout);
            return 0;
        }

        const Flag *flag = find(arg);
        if (!flag) {
            std::cerr << prog << ": unknown option '" << arg
                      << "'\n\n";
            usage(std::cerr);
            return 2;
        }

        int rc = 0;
        switch (flag->kind) {
          case Kind::Value:
            rc = flag->onValue(needValue(flag->name));
            break;
          case Kind::Number:
            rc = flag->onNumber(needNumber(flag->name, flag->maxValue));
            break;
          case Kind::Real:
            rc = flag->onReal(needReal(flag->name));
            break;
          case Kind::Toggle:
            noValue(flag->name);
            rc = flag->onToggle();
            break;
        }
        if (rc != 0)
            return rc;
    }
    return std::nullopt;
}

} // namespace triarch::study
