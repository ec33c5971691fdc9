/**
 * @file
 * Tests for the set-associative LRU cache model.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>

#include "archsim/cache.hh"

namespace csprint {
namespace {

TEST(Cache, Geometry)
{
    Cache c(32 * 1024, 8, 64);
    EXPECT_EQ(c.numSets(), 64u);  // 32KB / (64B * 8 ways)
    EXPECT_EQ(c.associativity(), 8);
    EXPECT_EQ(c.validLines(), 0u);
}

TEST(Cache, MissThenHit)
{
    Cache c(1024, 2, 64);
    EXPECT_FALSE(c.access(5, false).hit);
    EXPECT_TRUE(c.access(5, false).hit);
    EXPECT_EQ(c.stats().hits, 1u);
    EXPECT_EQ(c.stats().misses, 1u);
}

TEST(Cache, LruEvictsColdestWay)
{
    // 2-way, 8 sets: lines with the same (line % 8) collide.
    Cache c(1024, 2, 64);
    const std::uint64_t a = 8, b = 16, d = 24;  // all map to set 0
    c.access(a, false);
    c.access(b, false);
    c.access(a, false);  // refresh a; b is now LRU
    const auto r = c.access(d, false);
    EXPECT_FALSE(r.hit);
    EXPECT_TRUE(r.evicted);
    EXPECT_EQ(r.evicted_line, b);
    EXPECT_TRUE(c.contains(a));
    EXPECT_FALSE(c.contains(b));
    EXPECT_TRUE(c.contains(d));
}

TEST(Cache, DirtyEvictionReported)
{
    Cache c(1024, 2, 64);
    c.access(8, true);   // dirty
    c.access(16, false);
    const auto r = c.access(24, false);  // evicts 8 (LRU, dirty)
    EXPECT_TRUE(r.evicted);
    EXPECT_EQ(r.evicted_line, 8u);
    EXPECT_TRUE(r.evicted_dirty);
    EXPECT_EQ(c.stats().dirty_evictions, 1u);
}

TEST(Cache, WriteMarksDirty)
{
    Cache c(1024, 2, 64);
    c.access(3, false);
    EXPECT_FALSE(c.isDirty(3));
    c.access(3, true);
    EXPECT_TRUE(c.isDirty(3));
    c.markClean(3);
    EXPECT_FALSE(c.isDirty(3));
    EXPECT_TRUE(c.contains(3));
}

TEST(Cache, InvalidateReturnsDirtiness)
{
    Cache c(1024, 2, 64);
    c.access(3, true);
    EXPECT_TRUE(c.invalidate(3));
    EXPECT_FALSE(c.contains(3));
    c.access(4, false);
    EXPECT_FALSE(c.invalidate(4));
    EXPECT_FALSE(c.invalidate(99));  // absent: no-op
}

TEST(Cache, FlushClearsEverything)
{
    Cache c(1024, 2, 64);
    for (std::uint64_t l = 0; l < 12; ++l)
        c.access(l, l % 2 == 0);
    EXPECT_GT(c.validLines(), 0u);
    c.flush();
    EXPECT_EQ(c.validLines(), 0u);
}

TEST(Cache, CapacityBound)
{
    Cache c(1024, 2, 64);  // 16 lines total
    for (std::uint64_t l = 0; l < 100; ++l)
        c.access(l, false);
    EXPECT_LE(c.validLines(), 16u);
}

TEST(Cache, FullAssociativeSweepHitsAfterWarmup)
{
    // Working set equal to capacity, accessed round-robin, stays
    // resident under true LRU.
    Cache c(1024, 16, 64);  // one set, 16 ways
    for (int pass = 0; pass < 3; ++pass)
        for (std::uint64_t l = 0; l < 16; ++l)
            c.access(l, false);
    EXPECT_EQ(c.stats().misses, 16u);
    EXPECT_EQ(c.stats().hits, 32u);
}

TEST(Cache, ThrashingSweepAlwaysMisses)
{
    // Working set one larger than capacity with LRU: every access
    // misses after warmup (the classic LRU pathology).
    Cache c(1024, 16, 64);  // 16 lines
    for (int pass = 0; pass < 4; ++pass)
        for (std::uint64_t l = 0; l < 17; ++l)
            c.access(l, false);
    EXPECT_EQ(c.stats().hits, 0u);
}

/**
 * HitProbe::entry() recomputed by the way scan behind findSlot(),
 * which knows nothing of the probe's way hint.
 */
std::uint32_t
scannedEntry(const Cache &c, std::uint64_t line, bool write)
{
    const std::size_t slot = c.findSlot(line);
    if (slot == Cache::kNoSlot || (write && !c.isDirty(line)))
        return Cache::HitProbe::kMiss;
    const std::size_t ways = static_cast<std::size_t>(c.associativity());
    return static_cast<std::uint32_t>(((slot / ways) << Cache::kWayBits) |
                                      (slot % ways));
}

/** Probe every line of [0, @p lines) both ways against the scan. */
void
expectProbeMatchesScan(const Cache &c, std::uint64_t lines)
{
    for (std::uint64_t line = 0; line < lines; ++line) {
        for (bool write : {false, true}) {
            ASSERT_EQ(c.hitProbe().entry(line, write),
                      scannedEntry(c, line, write))
                << "line " << line << (write ? " store" : " load");
        }
    }
}

TEST(CacheHitProbe, StaleHintOnInvalidatedWayWithMatchingTag)
{
    // Fill four ways of one set, let the probe hint line 3's way, then
    // invalidate it and refill it into way 0: way 3 keeps tag 3 with
    // its valid bit clear, and the hint still points there.
    Cache c(4 * 64, 4, 64);  // one set
    for (std::uint64_t line = 0; line < 4; ++line)
        c.access(line, true);
    ASSERT_EQ(c.hitProbe().entry(3, false), 3u);
    c.invalidate(3);
    EXPECT_EQ(c.hitProbe().entry(3, false), Cache::HitProbe::kMiss);
    c.invalidate(0);
    c.access(3, false);
    ASSERT_EQ(c.findSlot(3), 0u);
    EXPECT_EQ(c.hitProbe().entry(3, false), 0u);
    EXPECT_EQ(c.hitProbe().entry(3, true), Cache::HitProbe::kMiss);
    expectProbeMatchesScan(c, 8);
}

TEST(CacheHitProbe, HintedEntryEqualsScanUnderRandomTraffic)
{
    // Four sets of 1 to 16 ways over a pool of three lines per way
    // and set, so fills evict, invalidations leave stale tags behind
    // and refills move lines between ways; after every step each
    // line's probe, load and store alike, must equal the scan.
    for (int ways = 1; ways <= 16; ++ways) {
        SCOPED_TRACE("ways " + std::to_string(ways));
        Cache c(4 * 64 * static_cast<std::size_t>(ways), ways, 64);
        const std::uint64_t pool = 3 * 4 * static_cast<std::uint64_t>(ways);
        std::mt19937_64 rng(1000 + static_cast<unsigned>(ways));
        for (int step = 0; step < 400; ++step) {
            const std::uint64_t line = rng() % pool;
            switch (rng() % 16) {
            case 0:
                c.invalidate(line);
                break;
            case 1:
            case 2:
                c.markClean(line);
                break;
            case 3:
                if (rng() % 8 == 0)
                    c.flush();
                break;
            case 4:
            case 5:
                c.accessIfPresent(line, rng() % 2 == 0);
                break;
            default:
                c.access(line, rng() % 3 == 0);
                break;
            }
            expectProbeMatchesScan(c, pool);
            if (HasFatalFailure())
                return;
        }
    }
}

} // namespace
} // namespace csprint
