/**
 * @file
 * The shared harness of the bench report drivers (the *_report.cc
 * files): the JSON format, the gate ledger, one stopwatch, the
 * rotating differential seed and the peak-RSS reader, plus the
 * self-removing scratch directories of tests/fresh_dir.hh. A header
 * because CMake turns every .cc file in bench/ into its own
 * executable.
 *
 * A report states each gate once, through Report: the ledger prints
 * its verdict, writes its JSON flag where the schema has one, and
 * folds it into the exit code. A paper claim (claims_report.cc) is
 * one more kind of gate, Report::claim, on a measured value and the
 * Band it must land in. Report::finish() writes --out, prints
 * the "wrote" line and one "FAIL:" line per failed gate. The schemas
 * themselves are documented per report in PERF.md.
 */

#ifndef CSPRINT_BENCH_REPORT_HH
#define CSPRINT_BENCH_REPORT_HH

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "../tests/fresh_dir.hh"
#include "common/args.hh"

namespace csprint {

/**
 * One pretty-printed JSON object, keys in the order they are written.
 * Integers print as integers, floating-point values with the writer's
 * precision (non-finite ones, which JSON cannot carry, as null), and
 * strings escaped. Nested containers are written through a body
 * callable, so every container that opens also closes.
 */
class JsonWriter
{
  public:
    explicit JsonWriter(int precision)
    {
        out.precision(precision);
        out << '{';
        firsts.push_back(true);
    }

    /** Scalar field @p key of the enclosing object. */
    template <typename T>
    JsonWriter &
    field(const std::string &key, const T &value)
    {
        entry(&key);
        scalar(value);
        return *this;
    }

    /** A scalar array, written on one line. */
    template <typename T>
    JsonWriter &
    field(const std::string &key, const std::vector<T> &values)
    {
        entry(&key);
        out << '[';
        for (std::size_t i = 0; i < values.size(); ++i) {
            out << (i ? ", " : "");
            scalar(values[i]);
        }
        out << ']';
        return *this;
    }

    /** Object field @p key; @p body writes its fields. */
    template <typename F>
    JsonWriter &
    object(const std::string &key, F body)
    {
        return open(&key, '{', '}', body);
    }

    /** An object element of the enclosing array. */
    template <typename F>
    JsonWriter &
    object(F body)
    {
        return open(nullptr, '{', '}', body);
    }

    /** Array field @p key; @p body writes its elements. */
    template <typename F>
    JsonWriter &
    array(const std::string &key, F body)
    {
        return open(&key, '[', ']', body);
    }

    /** The document so far, with its root object closed. */
    std::string str() const { return out.str() + "\n}\n"; }

  private:
    template <typename F>
    JsonWriter &
    open(const std::string *key, char lbrace, char rbrace, F body)
    {
        entry(key);
        out << lbrace;
        firsts.push_back(true);
        body();
        const bool empty = firsts.back();
        firsts.pop_back();
        if (!empty)
            newline();
        out << rbrace;
        return *this;
    }

    void
    entry(const std::string *key)
    {
        if (!firsts.back())
            out << ',';
        firsts.back() = false;
        newline();
        if (key) {
            quoted(*key);
            out << ": ";
        }
    }

    void
    newline()
    {
        out << '\n' << std::string(2 * firsts.size(), ' ');
    }

    template <typename T>
    void
    scalar(const T &v)
    {
        if constexpr (std::is_same_v<T, bool>) {
            out << (v ? "true" : "false");
        } else if constexpr (std::is_integral_v<T>) {
            out << +v;
        } else if constexpr (std::is_floating_point_v<T>) {
            if (std::isfinite(v))
                out << v;
            else
                out << "null";
        } else {
            quoted(v);
        }
    }

    void
    quoted(const std::string &s)
    {
        out << '"';
        for (const char c : s) {
            if (c == '"' || c == '\\') {
                out << '\\' << c;
            } else if (static_cast<unsigned char>(c) < 0x20) {
                char esc[8];
                std::snprintf(esc, sizeof(esc), "\\u%04x", c);
                out << esc;
            } else {
                out << c;
            }
        }
        out << '"';
    }

    std::ostringstream out;
    std::vector<bool> firsts; ///< per open container: still empty
};

/** The closed interval a claim's measured value must land in, and why. */
struct Band
{
    double lo = 0.0;
    double hi = 0.0;
    std::string why;
};

/**
 * One report: its JSON document, opened with the schema string, and
 * its gate ledger. Each gate prints "<label>: pass" or
 * "<label>: FAIL (<detail>)" when it is recorded.
 */
class Report
{
  public:
    Report(std::string out_path, const std::string &schema,
           int precision = 6)
        : path(std::move(out_path)), doc(precision)
    {
        doc.field("schema", schema);
    }

    JsonWriter &json() { return doc; }

    /** A gate whose verdict has no JSON field of its own. */
    bool
    check(const std::string &label, bool ok,
          const std::string &detail = "")
    {
        const std::string why = detail.empty() ? "" : " (" + detail + ")";
        std::cout << label << (ok ? ": pass\n" : ": FAIL" + why + "\n");
        if (!ok)
            failures.push_back(label + why);
        return ok;
    }

    /** A gate whose verdict is field @p key of the open object. */
    bool
    flag(const std::string &key, const std::string &label, bool ok,
         const std::string &detail = "")
    {
        doc.field(key, ok);
        return check(label, ok, detail);
    }

    /**
     * A bit-for-bit parity gate: field "exact", plus "first_mismatch"
     * naming @p why, the first difference, when it is not empty.
     */
    bool
    parity(const std::string &label, const std::string &why)
    {
        doc.field("exact", why.empty());
        if (!why.empty())
            doc.field("first_mismatch", why);
        return check(label, why.empty(), why);
    }

    /**
     * A paper-claim gate: fields "measured" (null when not finite),
     * "band" ([lo, hi]), "band_reason", "pass" (measured lies in the
     * band) and "expect": "pass", or "known_miss" plus "cause" when
     * @p miss names why the model misses. The gate holds when the
     * verdict is the declared one, so a declared pass that misses
     * fails it, and so does a known miss that lands in band. A
     * measurement that is not finite never holds.
     */
    bool
    claim(const std::string &label, double measured, const Band &band,
          const std::string &miss = "")
    {
        const bool finite = std::isfinite(measured);
        const bool in_band =
            finite && measured >= band.lo && measured <= band.hi;
        doc.field("measured", measured)
            .field("band", std::vector<double>{band.lo, band.hi})
            .field("band_reason", band.why)
            .field("pass", in_band)
            .field("expect", miss.empty() ? "pass" : "known_miss");
        if (!miss.empty())
            doc.field("cause", miss);
        return check(label, finite && in_band == miss.empty(),
                     !finite  ? "measured value is not finite"
                     : in_band ? "in band, declared a known miss"
                               : "out of band");
    }

    bool allPass() const { return failures.empty(); }

    /**
     * Write the document to the output path; then the "wrote" line and
     * one "FAIL:" line per failed gate. The exit code: 0 iff the file
     * was written and every gate passed.
     */
    int
    finish()
    {
        std::ofstream out(path);
        out << doc.str();
        out.close();
        if (!out) {
            std::cerr << "FAIL: cannot write " << path << "\n";
            return 1;
        }
        std::cout << "wrote " << path << "\n";
        for (const std::string &f : failures)
            std::cerr << "FAIL: " << f << "\n";
        return allPass() ? 0 : 1;
    }

  private:
    std::string path;
    JsonWriter doc;
    std::vector<std::string> failures;
};

/** Wall seconds on the steady clock since construction or lap(). */
class Stopwatch
{
  public:
    double
    seconds() const
    {
        return std::chrono::duration<double>(Clock::now() - start).count();
    }

    /** seconds(), then restart. */
    double
    lap()
    {
        const Clock::time_point now = Clock::now();
        const double s = std::chrono::duration<double>(now - start).count();
        start = now;
        return s;
    }

  private:
    using Clock = std::chrono::steady_clock;
    Clock::time_point start = Clock::now();
};

/**
 * The rotating differential seed: --seed, in a report that takes it,
 * beats CSPRINT_DIFF_SEED, which beats @p fallback. Logged so a CI
 * failure replays locally.
 */
inline std::uint64_t
diffSeed(const ArgParser &args, std::uint64_t fallback)
{
    const std::uint64_t seed = static_cast<std::uint64_t>(args.getInt(
        "seed",
        static_cast<long long>(envSeed("CSPRINT_DIFF_SEED", fallback))));
    std::cout << "[ diff-seed ] CSPRINT_DIFF_SEED=" << seed << "\n";
    return seed;
}

/**
 * Peak RSS (VmHWM) in KB, or -1 when /proc is unavailable. VmHWM is
 * kept per address space and starts over at exec, so a re-exec'd
 * probe child measures only itself; getrusage(RUSAGE_SELF).ru_maxrss
 * is not usable for that, since Linux carries it across exec.
 */
inline long
peakRssKb()
{
    std::ifstream status("/proc/self/status");
    std::string key;
    while (status >> key) {
        if (key == "VmHWM:") {
            long kb = -1;
            status >> kb;
            return kb;
        }
        status.ignore(4096, '\n');
    }
    return -1;
}

} // namespace csprint

#endif // CSPRINT_BENCH_REPORT_HH
