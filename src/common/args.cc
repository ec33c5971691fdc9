#include "common/args.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>

#include "common/logging.hh"

namespace csprint {

namespace {

/**
 * Reject a numeric flag value that strto* did not consume whole: an
 * empty value, trailing characters, or an out-of-range number is the
 * user's error.
 */
void
requireWholeNumber(const std::string &name, const std::string &text,
                   const char *end)
{
    if (text.empty() || *end != '\0' || errno == ERANGE)
        SPRINT_FATAL("bad value for --", name, ": '", text, "'");
}

} // namespace

ArgParser::ArgParser(int argc, const char *const *argv,
                     const std::vector<std::string> &known)
{
    auto is_known = [&](const std::string &name) {
        return std::find(known.begin(), known.end(), name) != known.end();
    };

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            extras.push_back(arg);
            continue;
        }
        arg = arg.substr(2);
        std::string name = arg;
        std::string value = "1";
        const auto eq = arg.find('=');
        if (eq != std::string::npos) {
            name = arg.substr(0, eq);
            value = arg.substr(eq + 1);
        } else if (i + 1 < argc &&
                   std::string(argv[i + 1]).rfind("--", 0) != 0) {
            value = argv[++i];
        }
        if (!is_known(name))
            SPRINT_FATAL("unknown flag --", name);
        flags[name] = value;
    }
}

bool
ArgParser::has(const std::string &name) const
{
    return flags.count(name) != 0;
}

std::string
ArgParser::get(const std::string &name, const std::string &fallback) const
{
    auto it = flags.find(name);
    return it == flags.end() ? fallback : it->second;
}

double
ArgParser::getDouble(const std::string &name, double fallback) const
{
    auto it = flags.find(name);
    if (it == flags.end())
        return fallback;
    char *end = nullptr;
    errno = 0;
    const double value = std::strtod(it->second.c_str(), &end);
    requireWholeNumber(name, it->second, end);
    return value;
}

long long
ArgParser::getInt(const std::string &name, long long fallback) const
{
    auto it = flags.find(name);
    if (it == flags.end())
        return fallback;
    char *end = nullptr;
    errno = 0;
    const long long value = std::strtoll(it->second.c_str(), &end, 10);
    requireWholeNumber(name, it->second, end);
    return value;
}

std::uint64_t
envSeed(const char *var, std::uint64_t fallback)
{
    const char *env = std::getenv(var);
    if (env == nullptr)
        return fallback;
    // strtoull alone would skip blanks and wrap a leading '-'.
    char *end = nullptr;
    errno = 0;
    const unsigned long long value = std::strtoull(env, &end, 10);
    if (!std::isdigit(static_cast<unsigned char>(*env)) || *end != '\0' ||
        errno == ERANGE)
        SPRINT_FATAL("bad value for ", var, ": '", env,
                     "' (want an unsigned 64-bit decimal)");
    return value;
}

} // namespace csprint
