/**
 * @file
 * Unit tests for the common infrastructure: statistics, time series,
 * tables, RNG, argument parsing, the blob codec's CRC32, and the
 * bench reports' JSON writer, gate ledger and paper-claim gate
 * (bench/report.hh).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <set>
#include <vector>

#include "../bench/report.hh"

#include "common/args.hh"
#include "common/blob.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/timeseries.hh"
#include "common/units.hh"

namespace csprint {
namespace {

TEST(RunningStat, EmptyDefaults)
{
    RunningStat s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStat, MeanMinMaxSum)
{
    RunningStat s;
    for (double x : {4.0, 8.0, 6.0, 2.0})
        s.add(x);
    EXPECT_EQ(s.count(), 4u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 8.0);
    EXPECT_DOUBLE_EQ(s.sum(), 20.0);
}

TEST(RunningStat, VarianceMatchesTwoPass)
{
    RunningStat s;
    const double xs[] = {1.5, 2.5, 4.0, 7.25, -3.0, 0.5};
    double mean = 0.0;
    for (double x : xs) {
        s.add(x);
        mean += x;
    }
    mean /= 6.0;
    double var = 0.0;
    for (double x : xs)
        var += (x - mean) * (x - mean);
    var /= 5.0;
    EXPECT_NEAR(s.variance(), var, 1e-12);
    EXPECT_NEAR(s.stddev(), std::sqrt(var), 1e-12);
}

TEST(TimeSeries, MinMaxBack)
{
    TimeSeries ts;
    ts.add(0.0, 1.0);
    ts.add(1.0, -2.0);
    ts.add(2.0, 5.0);
    EXPECT_DOUBLE_EQ(ts.minValue(), -2.0);
    EXPECT_DOUBLE_EQ(ts.maxValue(), 5.0);
    EXPECT_DOUBLE_EQ(ts.back(), 5.0);
    EXPECT_EQ(ts.size(), 3u);
}

TEST(TimeSeries, FirstTimeAboveInterpolates)
{
    TimeSeries ts;
    ts.add(0.0, 0.0);
    ts.add(2.0, 10.0);
    auto t = ts.firstTimeAbove(5.0);
    ASSERT_TRUE(t.has_value());
    EXPECT_NEAR(*t, 1.0, 1e-12);
    EXPECT_FALSE(ts.firstTimeAbove(11.0).has_value());
}

TEST(TimeSeries, FirstTimeBelowInterpolates)
{
    TimeSeries ts;
    ts.add(0.0, 10.0);
    ts.add(4.0, 2.0);
    auto t = ts.firstTimeBelow(6.0);
    ASSERT_TRUE(t.has_value());
    EXPECT_NEAR(*t, 2.0, 1e-12);
}

TEST(TimeSeries, SettlingTime)
{
    TimeSeries ts;
    // Decaying oscillation around 1.0.
    ts.add(0.0, 0.0);
    ts.add(1.0, 1.8);
    ts.add(2.0, 0.7);
    ts.add(3.0, 1.05);
    ts.add(4.0, 0.98);
    ts.add(5.0, 1.0);
    auto t = ts.settlingTime(0.1);
    ASSERT_TRUE(t.has_value());
    EXPECT_DOUBLE_EQ(*t, 3.0);
}

TEST(TimeSeries, TimeAbove)
{
    TimeSeries ts;
    ts.add(0.0, 0.0);
    ts.add(1.0, 2.0);
    ts.add(2.0, 0.0);
    // Crosses 1.0 at t=0.5 and t=1.5.
    EXPECT_NEAR(ts.timeAbove(1.0), 1.0, 1e-12);
}

TEST(TimeSeries, DecimateKeepsEndpoints)
{
    TimeSeries ts;
    for (int i = 0; i <= 1000; ++i)
        ts.add(i, i * i);
    TimeSeries d = ts.decimate(50);
    EXPECT_LE(d.size(), 52u);
    EXPECT_DOUBLE_EQ(d.timeAt(0), 0.0);
    EXPECT_DOUBLE_EQ(d.timeAt(d.size() - 1), 1000.0);
}

TEST(DecimatingTrace, StoresEverythingUnderCapacity)
{
    DecimatingTrace rec(16);
    for (int i = 0; i < 16; ++i)
        rec.add(i, 3.0 * i);
    EXPECT_EQ(rec.series().size(), 16u);
    EXPECT_EQ(rec.stride(), 1u);
    EXPECT_EQ(rec.offered(), 16u);
}

TEST(DecimatingTrace, CompactsToUniformGrid)
{
    // 1000 samples through a 16-slot recorder: the retained samples
    // sit on a power-of-two stride covering the whole stream, always
    // within capacity.
    DecimatingTrace rec(16);
    for (int i = 0; i < 1000; ++i)
        rec.add(i, 1.0 * i);
    const TimeSeries &ts = rec.series();
    EXPECT_LE(ts.size(), 16u);
    EXPECT_GE(ts.size(), 8u);  // never compacts below half
    const std::size_t stride = rec.stride();
    EXPECT_EQ(stride & (stride - 1), 0u);  // power of two
    for (std::size_t i = 0; i < ts.size(); ++i) {
        EXPECT_DOUBLE_EQ(ts.timeAt(i),
                         static_cast<double>(i * stride));
        EXPECT_DOUBLE_EQ(ts.valueAt(i),
                         static_cast<double>(i * stride));
    }
    // First sample always survives every compaction.
    EXPECT_DOUBLE_EQ(ts.timeAt(0), 0.0);
}

TEST(DecimatingTrace, TakeResetsTheRecorder)
{
    DecimatingTrace rec(8);
    for (int i = 0; i < 100; ++i)
        rec.add(i, i);
    const TimeSeries first = rec.take();
    EXPECT_GT(first.size(), 0u);
    EXPECT_EQ(rec.series().size(), 0u);
    EXPECT_EQ(rec.offered(), 0u);
    rec.add(0.0, 42.0);
    EXPECT_EQ(rec.series().size(), 1u);
    EXPECT_DOUBLE_EQ(rec.series().valueAt(0), 42.0);
}

TEST(P2Quantile, ExactForFirstFiveSamples)
{
    P2Quantile q(0.5);
    q.add(5.0);
    EXPECT_DOUBLE_EQ(q.value(), 5.0);
    q.add(1.0);
    q.add(9.0);
    // Nearest-rank median of {1, 5, 9}.
    EXPECT_DOUBLE_EQ(q.value(), 5.0);
    q.add(3.0);
    q.add(7.0);
    EXPECT_DOUBLE_EQ(q.value(), 5.0);
    EXPECT_EQ(q.count(), 5u);
}

TEST(P2Quantile, TracksUniformStreamMedianAndTail)
{
    // A deterministic shuffled uniform stream: the P² estimates must
    // land close to the true quantiles.
    Rng rng(7);
    P2Quantile p50(0.5), p95(0.95);
    for (int i = 0; i < 20000; ++i) {
        const double x = rng.uniform();
        p50.add(x);
        p95.add(x);
    }
    EXPECT_NEAR(p50.value(), 0.5, 0.02);
    EXPECT_NEAR(p95.value(), 0.95, 0.02);
}

TEST(P2Quantile, MonotoneRampStaysOrdered)
{
    // The back-to-back response pattern: linearly growing samples.
    P2Quantile p50(0.5), p95(0.95);
    for (int i = 1; i <= 1000; ++i) {
        p50.add(static_cast<double>(i));
        p95.add(static_cast<double>(i));
    }
    EXPECT_NEAR(p50.value(), 500.0, 25.0);
    EXPECT_NEAR(p95.value(), 950.0, 25.0);
    EXPECT_LT(p50.value(), p95.value());
}

TEST(Rng, DeterministicForSeed)
{
    Rng a(123), b(123), c(124);
    EXPECT_EQ(a.next(), b.next());
    EXPECT_NE(a.next(), c.next());
}

TEST(Rng, UniformInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const double x = rng.uniform(2.0, 3.0);
        EXPECT_GE(x, 2.0);
        EXPECT_LT(x, 3.0);
    }
}

TEST(Rng, UniformIntBounded)
{
    Rng rng(9);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 2000; ++i) {
        const std::uint64_t v = rng.uniformInt(10);
        EXPECT_LT(v, 10u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 10u);  // all buckets hit
}

TEST(Units, Conversions)
{
    EXPECT_DOUBLE_EQ(celsiusToKelvin(25.0), 298.15);
    EXPECT_DOUBLE_EQ(kelvinToCelsius(373.15), 100.0);
    EXPECT_DOUBLE_EQ(cyclesToSeconds(1000, 1e9), 1e-6);
    EXPECT_EQ(secondsToCycles(1e-6, 1e9), 1000u);
}

TEST(ArgParser, FlagsAndPositionals)
{
    const char *argv[] = {"prog", "--cores=16", "--pcm", "0.15",
                          "input.png", "--verbose"};
    ArgParser args(6, argv, {"cores", "pcm", "verbose"});
    EXPECT_EQ(args.getInt("cores", 1), 16);
    EXPECT_DOUBLE_EQ(args.getDouble("pcm", 0.0), 0.15);
    EXPECT_TRUE(args.has("verbose"));
    EXPECT_FALSE(args.has("missing"));
    ASSERT_EQ(args.positional().size(), 1u);
    EXPECT_EQ(args.positional()[0], "input.png");

    // A numeric value must be wholly a number, in range.
    const char *bad_argv[] = {"prog", "--fd", "x", "--begin", "12abc",
                              "--empty=", "--big=99999999999999999999",
                              "--huge=1e999", "--rate", "0.5s"};
    ArgParser bad(10, bad_argv, {"fd", "begin", "empty", "big", "huge",
                                 "rate"});
    EXPECT_DEATH(bad.getInt("fd", 3), "bad value for --fd");
    EXPECT_DEATH(bad.getInt("begin", 0), "bad value for --begin");
    EXPECT_DEATH(bad.getInt("empty", 0), "bad value for --empty");
    EXPECT_DEATH(bad.getDouble("empty", 0.0), "bad value for --empty");
    EXPECT_DEATH(bad.getInt("big", 0), "bad value for --big");
    EXPECT_DEATH(bad.getDouble("huge", 0.0), "bad value for --huge");
    EXPECT_DEATH(bad.getDouble("rate", 0.0), "bad value for --rate");
}

TEST(EnvSeed, WholeDecimalOrFallback)
{
    const char *var = "CSPRINT_ENV_SEED_TEST";
    ::unsetenv(var);
    EXPECT_EQ(envSeed(var, 20260730u), 20260730u);
    ::setenv(var, "12345", 1);
    EXPECT_EQ(envSeed(var, 1u), 12345u);
    ::setenv(var, "18446744073709551615", 1);
    EXPECT_EQ(envSeed(var, 1u), UINT64_MAX);

    // Non-numeric, trailing junk, empty, signed, padded or out of
    // range: fatal, naming the variable.
    for (const char *bad : {"abc", "12x", "", "-1", "+7", " 7",
                            "18446744073709551616"}) {
        ::setenv(var, bad, 1);
        EXPECT_DEATH(envSeed(var, 1u),
                     "bad value for CSPRINT_ENV_SEED_TEST")
            << "'" << bad << "'";
    }
    ::unsetenv(var);
}

/** Bitwise reflected CRC-32 (poly 0xedb88320): the reference. */
std::uint32_t
referenceCrc32(const std::uint8_t *p, std::size_t n, std::uint32_t seed)
{
    std::uint32_t c = seed ^ 0xffffffffu;
    for (std::size_t i = 0; i < n; ++i) {
        c ^= p[i];
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    return c ^ 0xffffffffu;
}

TEST(Crc32, CheckValue)
{
    const char *check = "123456789";
    EXPECT_EQ(crc32(check, 9), 0xCBF43926u);
    EXPECT_EQ(crc32(check, 0), 0u);
}

TEST(Crc32, MatchesBytewiseReference)
{
    Rng rng(7);
    std::vector<std::uint8_t> buf(256);
    for (auto &b : buf)
        b = static_cast<std::uint8_t>(rng.next());

    // Every length 0..64 from every misaligned start 0..7, chaining
    // each result in as the next call's seed.
    std::uint32_t fast = 0;
    std::uint32_t ref = 0;
    for (std::size_t start = 0; start < 8; ++start) {
        for (std::size_t len = 0; len <= 64; ++len) {
            const std::uint8_t *p = buf.data() + start;
            EXPECT_EQ(crc32(p, len), referenceCrc32(p, len, 0))
                << "start " << start << " len " << len;
            fast = crc32(p, len, fast);
            ref = referenceCrc32(p, len, ref);
            ASSERT_EQ(fast, ref) << "start " << start << " len " << len;
        }
    }

    // Split anywhere, a chained CRC equals the one-shot CRC.
    const std::uint32_t whole = crc32(buf.data(), buf.size());
    EXPECT_EQ(whole, referenceCrc32(buf.data(), buf.size(), 0));
    for (std::size_t cut = 0; cut <= buf.size(); cut += 13)
        EXPECT_EQ(crc32(buf.data() + cut, buf.size() - cut,
                        crc32(buf.data(), cut)),
                  whole);
}

TEST(ReportJson, KeepsOrderTypesAndEscapes)
{
    JsonWriter json(6);
    json.field("name", "a\"b\\c\nd")
        .field("count", std::uint64_t{18446744073709551615ULL})
        .field("ratio", 1.0 / 3.0)
        .field("whole", 10.0)
        .field("nan", std::nan(""))
        .field("ok", true)
        .field("list", std::vector<int>{1, 2});
    json.object("inner", [&] { json.field("x", -1); });
    json.array("rows", [&] { json.object([&] { json.field("y", 0.5); }); });
    json.object("empty", [] {});
    EXPECT_EQ(json.str(), R"({
  "name": "a\"b\\c\u000ad",
  "count": 18446744073709551615,
  "ratio": 0.333333,
  "whole": 10,
  "nan": null,
  "ok": true,
  "list": [1, 2],
  "inner": {
    "x": -1
  },
  "rows": [
    {
      "y": 0.5
    }
  ],
  "empty": {}
}
)");
}

TEST(ReportLedger, FailedGateIsWrittenAndFailsTheExit)
{
    const std::string dir = freshDir("ledger");
    Report report(dir + "/report.json", "ledger-test-v1");
    JsonWriter &json = report.json();
    json.object("same", [&] { EXPECT_TRUE(report.parity("same run", "")); });
    json.object("other", [&] {
        EXPECT_FALSE(report.parity("other run", "task_time"));
    });
    json.object("speed", [&] {
        EXPECT_FALSE(report.flag("pass", "fast enough", false, "slow"));
    });
    EXPECT_TRUE(report.check("unflagged", true));
    EXPECT_FALSE(report.allPass());
    EXPECT_EQ(report.finish(), 1);

    std::ifstream in(dir + "/report.json");
    std::stringstream text;
    text << in.rdbuf();
    EXPECT_EQ(text.str(), R"({
  "schema": "ledger-test-v1",
  "same": {
    "exact": true
  },
  "other": {
    "exact": false,
    "first_mismatch": "task_time"
  },
  "speed": {
    "pass": false
  }
}
)");
}

TEST(ReportLedger, ClaimVerdictFollowsDeclaration)
{
    // A claim's gate holds when its verdict (in band or not) is the
    // declared one, and never for a measurement that is not finite.
    const Band band = {9.0, 11.0, "test band"};
    struct Case
    {
        const char *name;
        double measured;
        const char *miss; ///< empty: declared to pass
        int exit;
        const char *written; ///< a run of the row's JSON
    };
    const Case cases[] = {
        {"in-band pass", 10.0, "", 0,
         "\"measured\": 10,\n    \"band\": [9, 11],\n"
         "    \"band_reason\": \"test band\",\n    \"pass\": true,\n"
         "    \"expect\": \"pass\"\n"},
        {"out-of-band pass", 12.0, "", 1,
         "\"pass\": false,\n    \"expect\": \"pass\"\n"},
        {"missing known miss", 12.0, "model too coarse", 0,
         "\"pass\": false,\n    \"expect\": \"known_miss\",\n"
         "    \"cause\": \"model too coarse\"\n"},
        {"known miss in band", 10.0, "model too coarse", 1,
         "\"pass\": true,\n    \"expect\": \"known_miss\""},
        {"non-finite pass", std::nan(""), "", 1,
         "\"measured\": null,"},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.name);
        const std::string dir = freshDir("claim");
        Report report(dir + "/report.json", "claim-test-v1");
        report.json().object("row", [&] {
            EXPECT_EQ(report.claim(c.name, c.measured, band, c.miss),
                      c.exit == 0);
        });
        EXPECT_EQ(report.finish(), c.exit);
        std::ifstream in(dir + "/report.json");
        std::stringstream text;
        text << in.rdbuf();
        EXPECT_NE(text.str().find(c.written), std::string::npos)
            << text.str();
    }
}

} // namespace
} // namespace csprint
