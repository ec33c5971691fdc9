/**
 * @file
 * Tests for the memory-bandwidth model and the directory-coherent
 * shared L2.
 */

#include <gtest/gtest.h>

#include <initializer_list>
#include <random>
#include <vector>

#include "archsim/cache.hh"
#include "archsim/l2.hh"
#include "archsim/memory.hh"

namespace csprint {
namespace {

MemoryConfig
smallMem()
{
    MemoryConfig cfg;
    cfg.channels = 2;
    cfg.channel_bytes_per_sec = 4.0e9;
    cfg.round_trip = 60e-9;
    cfg.line_bytes = 64;
    return cfg;
}

TEST(Memory, UncontendedLatencySixtyCycles)
{
    MemorySystem mem(smallMem(), 1e9);
    EXPECT_EQ(mem.uncontendedLatency(), 60u);
    // 4 GB/s at 1 GHz = 4 B/cycle -> 16 cycles per 64 B line.
    EXPECT_EQ(mem.serviceCycles(), 16u);
}

TEST(Memory, SingleAccessNoQueue)
{
    MemorySystem mem(smallMem(), 1e9);
    EXPECT_EQ(mem.read(0, 100), 60u + 16u);
    EXPECT_EQ(mem.stats().queued_cycles, 0u);
}

TEST(Memory, BackToBackSameChannelQueues)
{
    MemorySystem mem(smallMem(), 1e9);
    mem.read(0, 0);   // channel 0 busy until cycle 16
    const Cycles lat = mem.read(2, 0);  // same channel (2 % 2 == 0)
    EXPECT_EQ(lat, 16u + 60u + 16u);
    EXPECT_GT(mem.stats().queued_cycles, 0u);
}

TEST(Memory, ChannelsIndependent)
{
    MemorySystem mem(smallMem(), 1e9);
    mem.read(0, 0);  // channel 0
    const Cycles lat = mem.read(1, 0);  // channel 1: no queueing
    EXPECT_EQ(lat, 60u + 16u);
}

TEST(Memory, BandwidthCeiling)
{
    // Saturating one channel: N lines take ~N*service cycles.
    MemorySystem mem(smallMem(), 1e9);
    Cycles last = 0;
    const int n = 100;
    for (int i = 0; i < n; ++i)
        last = mem.read(static_cast<std::uint64_t>(2 * i), 0);
    // The last access queues behind 99 others: ~99*16 cycles.
    EXPECT_GE(last, 99u * 16u);
}

TEST(Memory, FrequencyMultiplierScalesCycles)
{
    MemorySystem mem(smallMem(), 1e9, 2.0);
    // At 2 GHz, 60 ns = 120 cycles and 4 GB/s = 2 B/cycle -> 32.
    EXPECT_EQ(mem.uncontendedLatency(), 120u);
    EXPECT_EQ(mem.serviceCycles(), 32u);
}

TEST(Memory, WritebackConsumesBandwidthOnly)
{
    MemorySystem mem(smallMem(), 1e9);
    mem.writeback(0, 0);
    EXPECT_EQ(mem.stats().writebacks, 1u);
    // A read right behind it queues.
    const Cycles lat = mem.read(2, 0);
    EXPECT_GT(lat, 60u + 16u);
}

TEST(Memory, AdoptChannelStateRebasesResidualOccupancy)
{
    // A task preempted mid-burst leaves channel 0 busy; the adopting
    // system (here at twice the clock) must rebase the residual span
    // into its own cycle domain, preserving wall-clock occupancy.
    MemorySystem prev(smallMem(), 1e9);
    for (int i = 0; i < 10; ++i)
        prev.read(0, 0);  // channel 0 busy until cycle 160
    EXPECT_DOUBLE_EQ(prev.channelFreeAt(0), 160.0);

    MemorySystem next(smallMem(), 2e9);
    next.adoptChannelState(prev, 100, 50);
    // 60 residual cycles at 1 GHz = 120 cycles at 2 GHz, from now=50.
    EXPECT_DOUBLE_EQ(next.channelFreeAt(0), 170.0);
    EXPECT_DOUBLE_EQ(next.channelFreeAt(1), 0.0);

    // A channel already drained before the cut adopts as idle.
    MemorySystem idle(smallMem(), 1e9);
    idle.adoptChannelState(prev, 500, 0);
    EXPECT_DOUBLE_EQ(idle.channelFreeAt(0), 0.0);
}

// --- Shared L2 + directory ---

/** A shared L2 with one private L1 per core. */
struct L2Rig
{
    explicit L2Rig(int cores,
                   DirectoryKind kind = DirectoryKind::Sparse)
        : mem(smallMem(), 1e9), l2(configOf(kind), mem, cores)
    {
        for (int i = 0; i < cores; ++i)
            l1s.emplace_back(32 * 1024, 8, 64);
    }

    static L2Config configOf(DirectoryKind kind)
    {
        L2Config cfg;
        cfg.directory = kind;
        return cfg;
    }

    /** One core access, performed as Machine::memoryAccess does. */
    void access(int core, std::uint64_t line, bool write, Cycles now)
    {
        Cache &l1 = l1s[static_cast<std::size_t>(core)];
        if (l1.accessIfPresent(line, write))
            return;
        const Cycles lat = l2.access(line, write, core, now, l1s);
        const CacheAccessResult fill = l1.access(line, write);
        if (fill.evicted && fill.evicted_dirty)
            l2.writebackFromL1(fill.evicted_line, core, now + lat);
    }

    MemorySystem mem;
    SharedL2 l2;
    std::vector<Cache> l1s;
};

/** The set of @p cores core ids holding exactly @p members. */
CoreSet
coresOf(int cores, std::initializer_list<int> members)
{
    CoreSet set(cores);
    for (int c : members)
        set.add(c);
    return set;
}

struct L2Fixture : public ::testing::Test, L2Rig
{
    L2Fixture() : L2Rig(4) {}
};

TEST_F(L2Fixture, MissThenHitLatency)
{
    const Cycles miss = l2.access(100, false, 0, 0, l1s);
    EXPECT_GT(miss, l2.config().hit_latency);
    l1s[0].access(100, false);
    const Cycles hit = l2.access(100, false, 1, 200, l1s);
    EXPECT_EQ(hit, l2.config().hit_latency);
    EXPECT_EQ(l2.stats().hits, 1u);
    EXPECT_EQ(l2.stats().misses, 1u);
}

TEST_F(L2Fixture, WriteInvalidatesOtherSharers)
{
    // Cores 0..2 read line 7; core 3 writes it.
    for (int c = 0; c < 3; ++c) {
        l2.access(7, false, c, 0, l1s);
        l1s[c].access(7, false);
    }
    const Cycles lat = l2.access(7, true, 3, 100, l1s);
    EXPECT_GT(lat, l2.config().hit_latency);  // coherence penalty
    EXPECT_EQ(l2.stats().invalidations_sent, 3u);
    for (int c = 0; c < 3; ++c)
        EXPECT_FALSE(l1s[c].contains(7)) << "core " << c;
}

TEST_F(L2Fixture, ReadDowngradesDirtyOwner)
{
    l2.access(9, true, 0, 0, l1s);
    l1s[0].access(9, true);  // core 0 holds line 9 dirty
    const Cycles lat = l2.access(9, false, 1, 50, l1s);
    EXPECT_GT(lat, l2.config().hit_latency);
    EXPECT_EQ(l2.stats().downgrades_sent, 1u);
    EXPECT_TRUE(l1s[0].contains(9));
    EXPECT_FALSE(l1s[0].isDirty(9));  // downgraded to clean
}

TEST_F(L2Fixture, WriteByOwnerNoPenalty)
{
    l2.access(9, true, 0, 0, l1s);
    const Cycles lat = l2.access(9, true, 0, 50, l1s);
    EXPECT_EQ(lat, l2.config().hit_latency);
    EXPECT_EQ(l2.stats().invalidations_sent, 0u);
}

TEST_F(L2Fixture, InclusionRecallOnEviction)
{
    // Fill one L2 set past its associativity and check L1 recall.
    // L2: 4 MB, 16 ways, 64 B lines -> 4096 sets; lines that collide
    // are spaced 4096 apart.
    const std::uint64_t base = 12;
    for (int i = 0; i < 17; ++i) {
        const std::uint64_t line = base + 4096ULL * i;
        l2.access(line, false, 0, i * 100, l1s);
        l1s[0].access(line, false);
    }
    // The first line was LRU in the L2 and must have been recalled
    // from core 0's L1.
    EXPECT_FALSE(l1s[0].contains(base));
    EXPECT_GE(l2.stats().inclusion_recalls, 1u);
}

TEST_F(L2Fixture, WritebackFromL1MarksDirty)
{
    l2.access(21, true, 0, 0, l1s);
    l1s[0].access(21, true);
    l2.writebackFromL1(21, 0, 10);
    EXPECT_EQ(l2.stats().writebacks_received, 1u);
}

TEST_F(L2Fixture, DropCoreClearsSharerState)
{
    l2.access(30, false, 2, 0, l1s);
    l1s[2].access(30, false);
    l2.dropCores(coresOf(4, {2}), l1s);
    EXPECT_EQ(l1s[2].validLines(), 0u);
    // A later write by another core sends no invalidation to core 2.
    const auto invals_before = l2.stats().invalidations_sent;
    l2.access(30, true, 0, 100, l1s);
    EXPECT_EQ(l2.stats().invalidations_sent, invals_before);
}

// --- Sparse directory past the one-word sharer cap ---

struct WideL2Fixture : public ::testing::Test, L2Rig
{
    static constexpr int kCores = 128;

    WideL2Fixture() : L2Rig(kCores) {}
};

TEST_F(WideL2Fixture, InlinePointersSpillToBitsetOnOverflow)
{
    // The first kInlineSharers readers fit in the entry; one more
    // promotes it to an overflow bitset block.
    for (int c = 0; c < SharedL2::kInlineSharers; ++c) {
        l2.access(3, false, c, c, l1s);
        l1s[static_cast<std::size_t>(c)].access(3, false);
    }
    EXPECT_EQ(l2.stats().directory_spills, 0u);
    EXPECT_EQ(l2.sharerCount(3), SharedL2::kInlineSharers);

    l2.access(3, false, SharedL2::kInlineSharers, 10, l1s);
    EXPECT_EQ(l2.stats().directory_spills, 1u);
    EXPECT_EQ(l2.sharerCount(3), SharedL2::kInlineSharers + 1);
}

TEST_F(WideL2Fixture, WriteInvalidatesWellOverSixtyFourSharers)
{
    // All 128 cores read line 5 (impossible under the old 64-bit
    // mask); a write by core 0 must invalidate the other 127.
    for (int c = 0; c < kCores; ++c) {
        l2.access(5, false, c, c, l1s);
        l1s[static_cast<std::size_t>(c)].access(5, false);
    }
    EXPECT_EQ(l2.sharerCount(5), kCores);

    const auto before = l2.stats().invalidations_sent;
    l2.access(5, true, 0, 1000, l1s);
    EXPECT_EQ(l2.stats().invalidations_sent,
              before + static_cast<std::uint64_t>(kCores - 1));
    for (int c = 1; c < kCores; ++c)
        EXPECT_FALSE(l1s[static_cast<std::size_t>(c)].contains(5))
            << "core " << c;
    EXPECT_EQ(l2.sharerCount(5), 1);
}

TEST_F(WideL2Fixture, EvictionRecallsOverflowedSharers)
{
    // An L2 victim with >64 sharers must be recalled from every L1
    // (inclusion), and its overflow block released.
    const std::uint64_t base = 12;
    for (int c = 0; c < 100; ++c) {
        l2.access(base, false, c, c, l1s);
        l1s[static_cast<std::size_t>(c)].access(base, false);
    }
    for (int i = 1; i <= 16; ++i) {
        const std::uint64_t line = base + 4096ULL * i;
        l2.access(line, false, 0, 1000 + i, l1s);
        l1s[0].access(line, false);
    }
    for (int c = 0; c < 100; ++c)
        EXPECT_FALSE(l1s[static_cast<std::size_t>(c)].contains(base))
            << "core " << c;
    EXPECT_GE(l2.stats().inclusion_recalls, 100u);
    EXPECT_EQ(l2.sharerCount(base), 0);
}

TEST_F(WideL2Fixture, DropCoreLeavesOverflowedEntryConsistent)
{
    for (int c = 0; c < 80; ++c) {
        l2.access(9, false, c, c, l1s);
        l1s[static_cast<std::size_t>(c)].access(9, false);
    }
    l2.dropCores(coresOf(kCores, {70}), l1s);
    EXPECT_EQ(l2.sharerCount(9), 79);
    // The dropped core receives no invalidation on a later write.
    const auto before = l2.stats().invalidations_sent;
    l2.access(9, true, 0, 500, l1s);
    EXPECT_EQ(l2.stats().invalidations_sent, before + 78u);
}

// --- Batched drop oracle: dropCores(S) == dropping S's members singly ---

/**
 * Line @p pick of the oracle's traffic: 48 hot lines (heavily shared)
 * and 20 lines of one L2 set (4096 sets apart) that overflow its 16
 * ways.
 */
constexpr unsigned kTrafficLines = 68;

std::uint64_t
trafficLine(unsigned pick)
{
    return pick < 48 ? 5 + 67ULL * pick : 9 + 4096ULL * (pick - 48);
}

/** Seeded shared traffic: many sharers, dirty owners, evictions. */
void
driveSharedTraffic(L2Rig &rig, int cores, unsigned seed, Cycles &now)
{
    std::mt19937 rng(seed);
    for (int step = 0; step < 60 * cores + 400; ++step) {
        const int core =
            static_cast<int>(rng() % static_cast<unsigned>(cores));
        const std::uint64_t line = trafficLine(rng() % kTrafficLines);
        rig.access(core, line, rng() % 4 == 0, now);
        now += 3;
    }
}

std::vector<std::uint64_t>
touchedLines()
{
    std::vector<std::uint64_t> lines;
    for (unsigned pick = 0; pick < kTrafficLines; ++pick)
        lines.push_back(trafficLine(pick));
    return lines;
}

std::vector<int>
membersOf(const CoreSet &set)
{
    std::vector<int> out;
    set.forEach([&](int c) { out.push_back(c); });
    return out;
}

void
expectSameL2State(L2Rig &a, L2Rig &b, int cores)
{
    for (std::uint64_t line : touchedLines())
        EXPECT_EQ(a.l2.sharerCount(line), b.l2.sharerCount(line))
            << "line " << line;
    for (int c = 0; c < cores; ++c) {
        const Cache &la = a.l1s[static_cast<std::size_t>(c)];
        const Cache &lb = b.l1s[static_cast<std::size_t>(c)];
        EXPECT_EQ(la.validLines(), lb.validLines()) << "core " << c;
        EXPECT_EQ(la.stats().invalidations, lb.stats().invalidations)
            << "core " << c;
        for (std::uint64_t line : touchedLines())
            EXPECT_EQ(la.isDirty(line), lb.isDirty(line))
                << "core " << c << " line " << line;
    }
    const L2Stats &sa = a.l2.stats();
    const L2Stats &sb = b.l2.stats();
    EXPECT_EQ(sa.hits, sb.hits);
    EXPECT_EQ(sa.misses, sb.misses);
    EXPECT_EQ(sa.invalidations_sent, sb.invalidations_sent);
    EXPECT_EQ(sa.downgrades_sent, sb.downgrades_sent);
    EXPECT_EQ(sa.inclusion_recalls, sb.inclusion_recalls);
    EXPECT_EQ(sa.writebacks_received, sb.writebacks_received);
    EXPECT_EQ(sa.directory_spills, sb.directory_spills);
    EXPECT_EQ(a.mem.stats().writebacks, b.mem.stats().writebacks);
    CoreSet ma(cores), mb(cores);
    a.l2.takeL1Mutations(ma);
    b.l2.takeL1Mutations(mb);
    EXPECT_EQ(membersOf(ma), membersOf(mb));
}

void
expectBatchedDropMatchesSingles(int cores, DirectoryKind kind,
                                const CoreSet &drop, unsigned seed)
{
    L2Rig batched(cores, kind);
    L2Rig singles(cores, kind);
    Cycles now_a = 0;
    Cycles now_b = 0;
    driveSharedTraffic(batched, cores, seed, now_a);
    driveSharedTraffic(singles, cores, seed, now_b);
    CoreSet scratch(cores);
    batched.l2.takeL1Mutations(scratch);
    singles.l2.takeL1Mutations(scratch);

    // The drop must act on a dirty owner and, at 128 cores, on
    // entries that spilled to the overflow pool.
    int owner = -1;
    drop.forEach([&](int c) { owner = c; });
    batched.access(owner, trafficLine(1), true, now_a);
    singles.access(owner, trafficLine(1), true, now_b);
    EXPECT_TRUE(batched.l1s[static_cast<std::size_t>(owner)].isDirty(
        trafficLine(1)));
    if (cores > SharedL2::kInlineSharers &&
        kind == DirectoryKind::Sparse) {
        EXPECT_GT(batched.l2.stats().directory_spills, 0u);
    }

    batched.l2.dropCores(drop, batched.l1s);
    drop.forEach([&](int c) {
        CoreSet one(cores);
        one.add(c);
        singles.l2.dropCores(one, singles.l1s);
    });
    drop.forEach([&](int c) {
        EXPECT_EQ(batched.l1s[static_cast<std::size_t>(c)].validLines(),
                  0u);
    });
    expectSameL2State(batched, singles, cores);

    // The survivors keep running: later invalidations, evictions and
    // write-backs read the dirty bits and sharer sets the drop left.
    int survivor = 0;
    while (drop.contains(survivor))
        ++survivor;
    std::mt19937 rng(seed + 1);
    for (int step = 0; step < 600; ++step) {
        const std::uint64_t line = trafficLine(rng() % kTrafficLines);
        const bool write = rng() % 3 == 0;
        batched.access(survivor, line, write, now_a);
        singles.access(survivor, line, write, now_b);
        now_a += 3;
        now_b += 3;
    }
    expectSameL2State(batched, singles, cores);
}

TEST(DropCores, BatchedDropEqualsSingleDrops)
{
    for (int cores : {4, 128}) {
        for (DirectoryKind kind :
             {DirectoryKind::Sparse, DirectoryKind::FullMap}) {
            // Consolidation (all but core 0), a scattered set that
            // includes core 0, and one core.
            CoreSet all_but_zero(cores);
            CoreSet scattered(cores);
            for (int c = 0; c < cores; ++c) {
                if (c != 0)
                    all_but_zero.add(c);
                if (c % 3 == 0 || c == cores - 1)
                    scattered.add(c);
            }
            const CoreSet single = coresOf(cores, {cores / 2});
            for (unsigned seed : {1u, 2u, 3u}) {
                SCOPED_TRACE(::testing::Message()
                             << cores << " cores, "
                             << (kind == DirectoryKind::Sparse ? "sparse"
                                                               : "full map")
                             << ", seed " << seed);
                expectBatchedDropMatchesSingles(cores, kind, all_but_zero,
                                                seed);
                expectBatchedDropMatchesSingles(cores, kind, scattered,
                                                seed);
                expectBatchedDropMatchesSingles(cores, kind, single, seed);
            }
        }
    }
}

TEST(DropCores, EmptySetChangesNothing)
{
    L2Rig rig(4);
    Cycles now = 0;
    driveSharedTraffic(rig, 4, 7, now);
    CoreSet pending(4);
    rig.l2.takeL1Mutations(pending);
    const std::size_t valid = rig.l1s[1].validLines();
    rig.l2.dropCores(CoreSet(4), rig.l1s);
    EXPECT_EQ(rig.l1s[1].validLines(), valid);
    rig.l2.takeL1Mutations(pending);
    EXPECT_TRUE(pending.empty());
}

} // namespace
} // namespace csprint
