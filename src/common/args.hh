/**
 * @file
 * Minimal command-line flag parsing for the example programs.
 *
 * Supports --name=value and --name value forms plus boolean switches.
 * Unknown flags and numeric flags whose value is not wholly a number
 * are fatal (per the fatal/panic convention these are the user's
 * fault, not the library's), as is a malformed envSeed() variable.
 */

#ifndef CSPRINT_COMMON_ARGS_HH
#define CSPRINT_COMMON_ARGS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace csprint {

/** Parsed command line: flag map plus positional arguments. */
class ArgParser
{
  public:
    /** Parse argv; @p known lists the accepted flag names (no "--"). */
    ArgParser(int argc, const char *const *argv,
              const std::vector<std::string> &known);

    /** True when --name was given. */
    bool has(const std::string &name) const;

    /** String value for --name, or @p fallback when absent. */
    std::string get(const std::string &name,
                    const std::string &fallback) const;

    /**
     * Numeric value for --name, or @p fallback when absent. A value
     * that is empty, has trailing characters, or is out of range is
     * fatal.
     */
    double getDouble(const std::string &name, double fallback) const;

    /**
     * Integer value for --name, or @p fallback when absent; malformed
     * values are fatal as for getDouble().
     */
    long long getInt(const std::string &name, long long fallback) const;

    /** Positional (non-flag) arguments in order. */
    const std::vector<std::string> &positional() const { return extras; }

  private:
    std::map<std::string, std::string> flags;
    std::vector<std::string> extras;
};

/**
 * Seed from environment variable @p var, or @p fallback when it is
 * unset. A set value that is not wholly an unsigned decimal number in
 * the 64-bit range (empty, signed, trailing characters, overflow) is
 * fatal, and the message names @p var.
 */
std::uint64_t envSeed(const char *var, std::uint64_t fallback);

} // namespace csprint

#endif // CSPRINT_COMMON_ARGS_HH
