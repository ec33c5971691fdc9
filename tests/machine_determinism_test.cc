/**
 * @file
 * Event-driven/reference parity: the skip-ahead scheduler with batched
 * op streams (MachineLoop::EventDriven) must reproduce the retained
 * cycle-by-cycle loop (MachineLoop::Reference) *exactly* — identical
 * MachineStats (including bit-identical dynamic energy and wall-clock
 * seconds), identical L2/memory counters, identical per-sample hook
 * observations, and identical junction-temperature traces on coupled
 * runs — across serial, static, and dynamic phases, PAUSE/lock-spin
 * backoff, thread multiplexing, and mid-run control (consolidation,
 * frequency throttling, energy-model swaps).
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "archsim/machine.hh"
#include "archsim/program.hh"
#include "diff_seed.hh"
#include "sprint/checkpoint.hh"
#include "sprint/experiment.hh"
#include "sprint/scenario.hh"
#include "workloads/workload.hh"

namespace csprint {
namespace {

struct RunCapture
{
    MachineStats machine;
    L2Stats l2;
    MemoryStats memory;
    std::vector<CacheStats> l1;  ///< per core
    int active_cores = 0;
    std::vector<std::pair<Seconds, Joules>> samples;
};

/** Compare every statistic exactly (doubles bit-for-bit). */
void
expectIdentical(const RunCapture &ref, const RunCapture &ev)
{
    EXPECT_EQ(ref.machine.cycles, ev.machine.cycles);
    EXPECT_EQ(ref.machine.seconds, ev.machine.seconds);
    EXPECT_EQ(ref.machine.ops_retired, ev.machine.ops_retired);
    EXPECT_EQ(ref.machine.ops_by_kind, ev.machine.ops_by_kind);
    EXPECT_EQ(ref.machine.l1_hits, ev.machine.l1_hits);
    EXPECT_EQ(ref.machine.l1_misses, ev.machine.l1_misses);
    EXPECT_EQ(ref.machine.idle_cycles, ev.machine.idle_cycles);
    EXPECT_EQ(ref.machine.sleep_cycles, ev.machine.sleep_cycles);
    EXPECT_EQ(ref.machine.barrier_arrivals,
              ev.machine.barrier_arrivals);
    EXPECT_EQ(ref.machine.dynamic_energy, ev.machine.dynamic_energy);

    EXPECT_EQ(ref.l2.hits, ev.l2.hits);
    EXPECT_EQ(ref.l2.misses, ev.l2.misses);
    EXPECT_EQ(ref.l2.invalidations_sent, ev.l2.invalidations_sent);
    EXPECT_EQ(ref.l2.downgrades_sent, ev.l2.downgrades_sent);
    EXPECT_EQ(ref.l2.inclusion_recalls, ev.l2.inclusion_recalls);
    EXPECT_EQ(ref.l2.writebacks_received, ev.l2.writebacks_received);

    EXPECT_EQ(ref.memory.reads, ev.memory.reads);
    EXPECT_EQ(ref.memory.writebacks, ev.memory.writebacks);
    EXPECT_EQ(ref.memory.queued_cycles, ev.memory.queued_cycles);
    EXPECT_EQ(ref.active_cores, ev.active_cores);

    ASSERT_EQ(ref.l1.size(), ev.l1.size());
    for (std::size_t c = 0; c < ref.l1.size(); ++c) {
        EXPECT_EQ(ref.l1[c].hits, ev.l1[c].hits) << "L1 of core " << c;
        EXPECT_EQ(ref.l1[c].misses, ev.l1[c].misses) << "L1 of core " << c;
        EXPECT_EQ(ref.l1[c].evictions, ev.l1[c].evictions)
            << "L1 of core " << c;
        EXPECT_EQ(ref.l1[c].dirty_evictions, ev.l1[c].dirty_evictions)
            << "L1 of core " << c;
        EXPECT_EQ(ref.l1[c].invalidations, ev.l1[c].invalidations)
            << "L1 of core " << c;
    }

    ASSERT_EQ(ref.samples.size(), ev.samples.size());
    for (std::size_t i = 0; i < ref.samples.size(); ++i) {
        EXPECT_EQ(ref.samples[i].first, ev.samples[i].first)
            << "dt diverged at sample " << i;
        EXPECT_EQ(ref.samples[i].second, ev.samples[i].second)
            << "energy diverged at sample " << i;
    }
}

using HookFactory =
    std::function<Machine::SampleHook(RunCapture &capture)>;

/** Record every per-sample observation. */
Machine::SampleHook
recordingHook(RunCapture &capture)
{
    return [&capture](Machine &, Seconds dt, Joules e) {
        capture.samples.emplace_back(dt, e);
    };
}

RunCapture
runOnce(MachineLoop loop, const std::function<ParallelProgram()> &make,
        MachineConfig cfg, const HookFactory &hook_factory)
{
    const ParallelProgram program = make();
    cfg.loop = loop;
    Machine machine(cfg, program);
    RunCapture capture;
    if (hook_factory)
        machine.setSampleHook(hook_factory(capture), 1000);
    machine.run();
    capture.machine = machine.stats();
    capture.l2 = machine.l2Stats();
    capture.memory = machine.memoryStats();
    for (int c = 0; c < cfg.num_cores; ++c)
        capture.l1.push_back(machine.l1Stats(c));
    capture.active_cores = machine.activeCores();
    return capture;
}

/** Run both loops, compare them, and return the event-driven run. */
RunCapture
expectLoopsAgree(const std::function<ParallelProgram()> &make,
                 const MachineConfig &cfg,
                 const HookFactory &hook_factory = nullptr)
{
    const RunCapture ref =
        runOnce(MachineLoop::Reference, make, cfg, hook_factory);
    const RunCapture ev =
        runOnce(MachineLoop::EventDriven, make, cfg, hook_factory);
    expectIdentical(ref, ev);
    return ev;
}

/** Record every sample and consolidate once simTime() passes @p at. */
HookFactory
consolidatingHook(Seconds at)
{
    return [at](RunCapture &capture) {
        auto consolidated = std::make_shared<bool>(false);
        return [&capture, consolidated, at](Machine &m, Seconds dt,
                                            Joules e) {
            capture.samples.emplace_back(dt, e);
            if (!*consolidated && m.simTime() > at) {
                *consolidated = true;
                m.consolidateToSingleCore();
            }
        };
    };
}

MachineConfig
cfgOf(int cores, int threads)
{
    MachineConfig cfg;
    cfg.num_cores = cores;
    cfg.num_threads = threads;
    return cfg;
}

Phase
aluPhase(PhaseKind kind, std::size_t tasks, std::size_t n)
{
    Phase p;
    p.kind = kind;
    p.num_tasks = tasks;
    p.make_task = [n](std::size_t) -> std::unique_ptr<OpStream> {
        return std::make_unique<VectorOpStream>(
            std::vector<MicroOp>(n, MicroOp::intAlu()));
    };
    return p;
}

TEST(MachineDeterminism, SerialAluAndMemoryMix)
{
    auto make = [] {
        ParallelProgram prog("serial_mix");
        Phase p;
        p.kind = PhaseKind::Serial;
        p.num_tasks = 3;
        p.make_task = [](std::size_t t) -> std::unique_ptr<OpStream> {
            std::vector<MicroOp> ops;
            for (int i = 0; i < 4000; ++i) {
                ops.push_back(MicroOp::load(
                    0x1000 + 64 * ((t * 4000 + i) % 700)));
                ops.push_back(MicroOp::intAlu());
                ops.push_back(MicroOp::fpAlu());
                if (i % 5 == 0)
                    ops.push_back(
                        MicroOp::store(0x80000 + 64 * (i % 300)));
                ops.push_back(MicroOp::branch());
            }
            return std::make_unique<VectorOpStream>(std::move(ops));
        };
        prog.addPhase(std::move(p));
        return prog;
    };
    expectLoopsAgree(make, cfgOf(1, 1), recordingHook);
}

TEST(MachineDeterminism, StaticPhaseSharedReadsPrivateWrites)
{
    // Cross-core read sharing plus store upgrades: coherence
    // downgrades and invalidations interleave with stride commits.
    auto make = [] {
        ParallelProgram prog("static_shared");
        Phase p;
        p.kind = PhaseKind::ParallelStatic;
        p.num_tasks = 16;
        p.make_task = [](std::size_t t) -> std::unique_ptr<OpStream> {
            std::vector<MicroOp> ops;
            for (int i = 0; i < 3000; ++i) {
                // Everyone reads the same table...
                ops.push_back(MicroOp::load(0x2000 + 64 * (i % 97)));
                ops.push_back(MicroOp::intAlu());
                // ...and writes a private stripe.
                ops.push_back(MicroOp::store(
                    0x200000 + t * 0x10000 + 64 * (i % 120)));
            }
            return std::make_unique<VectorOpStream>(std::move(ops));
        };
        prog.addPhase(std::move(p));
        return prog;
    };
    expectLoopsAgree(make, cfgOf(8, 8), recordingHook);
}

TEST(MachineDeterminism, CoherencePingPong)
{
    // The adversarial case for batched op streams: two cores
    // alternately store to one line, so nearly every access carries a
    // cross-core invalidation.
    auto make = [] {
        ParallelProgram prog("pingpong");
        Phase p;
        p.kind = PhaseKind::ParallelStatic;
        p.num_tasks = 2;
        p.make_task = [](std::size_t) -> std::unique_ptr<OpStream> {
            std::vector<MicroOp> ops;
            for (int i = 0; i < 4000; ++i) {
                ops.push_back(MicroOp::store(0x1000));
                ops.push_back(MicroOp::intAlu());
            }
            return std::make_unique<VectorOpStream>(std::move(ops));
        };
        prog.addPhase(std::move(p));
        return prog;
    };
    expectLoopsAgree(make, cfgOf(2, 2), recordingHook);
}

TEST(MachineDeterminism, SharedLineRandomTrafficFuzz)
{
    // Randomized mixed loads/stores over a handful of shared lines:
    // the regression net for within-cycle ordering between deferred
    // stride commits and cross-core coherence actions (a lower-id
    // core's op on the mutation cycle itself must replay against the
    // pre-mutation state).
    for (unsigned seed = 1; seed <= 20; ++seed) {
        auto make = [seed] {
            ParallelProgram prog("fuzz");
            Phase p;
            p.kind = PhaseKind::ParallelStatic;
            p.num_tasks = 4;
            p.make_task =
                [seed](std::size_t t) -> std::unique_ptr<OpStream> {
                std::mt19937 rng(seed * 97 + static_cast<unsigned>(t));
                std::vector<MicroOp> ops;
                for (int i = 0; i < 400; ++i) {
                    if (rng() % 100 < 35) {
                        const std::uint64_t a =
                            0x1000 + 64 * (rng() % 4);
                        ops.push_back(rng() % 3 == 0
                                          ? MicroOp::store(a)
                                          : MicroOp::load(a));
                    } else {
                        ops.push_back(MicroOp::intAlu());
                    }
                }
                return std::make_unique<VectorOpStream>(
                    std::move(ops));
            };
            prog.addPhase(std::move(p));
            return prog;
        };
        SCOPED_TRACE(seed);
        expectLoopsAgree(make, cfgOf(4, 4), recordingHook);
    }
}

TEST(MachineDeterminism, DynamicPhaseDequeueContention)
{
    auto make = [] {
        ParallelProgram prog("dequeue");
        Phase p;
        p.kind = PhaseKind::ParallelDynamic;
        p.num_tasks = 600;
        p.make_task = [](std::size_t t) -> std::unique_ptr<OpStream> {
            return std::make_unique<VectorOpStream>(std::vector<MicroOp>(
                20 + t % 13, MicroOp::intAlu()));
        };
        prog.addPhase(std::move(p));
        return prog;
    };
    expectLoopsAgree(make, cfgOf(16, 16), recordingHook);
}

TEST(MachineDeterminism, LockSpinPauseBackoffOversubscribed)
{
    // 8 threads on 2 cores hammering one lock: spin, PAUSE backoff,
    // sleeps, and quantum preemption all in play.
    auto make = [] {
        ParallelProgram prog("hammer");
        Phase p;
        p.kind = PhaseKind::ParallelStatic;
        p.num_tasks = 8;
        p.make_task = [](std::size_t) -> std::unique_ptr<OpStream> {
            std::vector<MicroOp> ops;
            for (int i = 0; i < 60; ++i) {
                ops.push_back(MicroOp::lockAcquire(0));
                for (int j = 0; j < 120; ++j)
                    ops.push_back(MicroOp::intAlu());
                ops.push_back(MicroOp::lockRelease(0));
                ops.push_back(MicroOp::pause());
            }
            return std::make_unique<VectorOpStream>(std::move(ops));
        };
        prog.addPhase(std::move(p));
        return prog;
    };
    expectLoopsAgree(make, cfgOf(2, 8), recordingHook);
}

TEST(MachineDeterminism, MultiplexedQuantumPreemption)
{
    auto make = [] {
        ParallelProgram prog("mux");
        prog.addPhase(aluPhase(PhaseKind::ParallelStatic, 6, 150000));
        return prog;
    };
    MachineConfig cfg = cfgOf(2, 6);
    cfg.thread_quantum = 7000;
    expectLoopsAgree(make, cfg, recordingHook);
}

TEST(MachineDeterminism, MultiPhaseBarrierCrossings)
{
    auto make = [] {
        ParallelProgram prog("phases");
        prog.addPhase(aluPhase(PhaseKind::Serial, 2, 2000));
        prog.addPhase(aluPhase(PhaseKind::ParallelStatic, 24, 900));
        prog.addPhase(aluPhase(PhaseKind::ParallelDynamic, 40, 350));
        prog.addPhase(aluPhase(PhaseKind::Serial, 1, 512));
        return prog;
    };
    expectLoopsAgree(make, cfgOf(6, 6), recordingHook);
}

TEST(MachineDeterminism, ConsolidateToSingleCoreMidRun)
{
    auto make = [] {
        ParallelProgram prog("consolidate");
        prog.addPhase(aluPhase(PhaseKind::ParallelStatic, 16, 40000));
        return prog;
    };
    expectLoopsAgree(make, cfgOf(16, 16), consolidatingHook(20e-6));
}

TEST(MachineDeterminism, SingleCoreSameLineRunsProbeExactly)
{
    // With one core the stride probe skips the L1 lookup of a memory
    // op that repeats the last verified (line, store) pair, and queues
    // no hit entry for an op on the line before it. Long same-line
    // load and store runs exercise both; a store to a line just loaded
    // clean needs an S->M upgrade and must still end the run. Without
    // a hook, a probe runs unclamped over whole chunks, whose 6000 FP
    // ops overflow one field of the packed per-kind tally unless it is
    // flushed every 4095 ops.
    auto make = [] {
        ParallelProgram prog("same_line");
        Phase p;
        p.kind = PhaseKind::Serial;
        p.num_tasks = 2;
        p.make_task = [](std::size_t t) -> std::unique_ptr<OpStream> {
            return std::make_unique<ChunkedOpStream>(
                6, [t](std::size_t chunk, std::vector<MicroOp> &ops) {
                    ops.clear();
                    const std::uint64_t line =
                        0x10000 + 64 * ((t * 6 + chunk) * 7 % 300);
                    for (int i = 0; i < 1500; ++i)
                        ops.push_back(MicroOp::load(line + 8 * (i % 8)));
                    ops.push_back(MicroOp::store(line));  // S -> M
                    for (int i = 0; i < 1500; ++i) {
                        ops.push_back(MicroOp::store(line + 8 * (i % 8)));
                        if (i % 100 == 0)
                            ops.push_back(MicroOp::intAlu());
                    }
                    for (int i = 0; i < 600; ++i) {
                        ops.push_back(MicroOp::load(line));
                        ops.push_back(MicroOp::store(line + 8));
                    }
                    for (int i = 0; i < 9000; ++i)
                        ops.push_back(i % 3 ? MicroOp::fpAlu()
                                            : MicroOp::branch());
                    ops.push_back(MicroOp::load(line + 64 * 512));
                });
        };
        prog.addPhase(std::move(p));
        return prog;
    };
    expectLoopsAgree(make, cfgOf(1, 1), recordingHook);
    const RunCapture ev = expectLoopsAgree(make, cfgOf(1, 1));
    EXPECT_GT(ev.machine.l1_hits, 2u * 6u * 4000u);
}

/** Sets of the default L1 (32 KB, 8 ways, 64 B lines). */
constexpr std::uint64_t kL1Sets = 64;

/** Byte address of the line with tag @p tag in L1 set @p set. */
std::uint64_t
setAddr(std::uint64_t set, std::uint64_t tag)
{
    return (set + kL1Sets * tag) * 64;
}

/**
 * Same-line runs over one L1 set whose misses depend on every recency
 * update of the multi-core stride path. A model of the set's LRU order
 * picks the lines: each round touches the least recently used lines
 * in runs of same-line ops, then loads a fresh line, which evicts the
 * LRU line. A touch the commit drops, or replays out of order, changes
 * which line goes, and a later round misses on a line the model
 * keeps, so the L1 misses equal the fills (8 warm-up lines plus one
 * per round) only when every touch lands in order. A wrong order shows
 * only if the model touches the line the machine evicted before the
 * model evicts it itself; rounds touch one to three lines at random, so
 * the lines of one round reach the eviction point at varying offsets
 * (a fixed cycle of counts evicts some of them untouched every time).
 */
class LruRounds
{
  public:
    LruRounds(std::uint64_t set, std::uint64_t first_tag, unsigned seed)
        : set(set), next_tag(first_tag), rng(seed)
    {
    }

    /** Fill the set with eight lines (the first one LRU). */
    void warm(std::vector<MicroOp> &ops)
    {
        for (int j = 0; j < 8; ++j)
            fill(ops);
    }

    /**
     * One round: one to three runs of @p run same-line ops (each a
     * load of the line plus an ALU op), each on the LRU line at its
     * start. With @p store, each run continues with a store to its
     * line and @p run more ops that mix loads and stores: the store
     * needs an S->M upgrade when the line is clean, and is a local hit
     * of the same line when it is dirty. @p extra (may be empty) is
     * appended between the runs and the fresh line.
     */
    void round(std::vector<MicroOp> &ops, int run, bool store,
               const std::vector<MicroOp> &extra = {})
    {
        const int touches = 1 + static_cast<int>(rng() % 3);
        for (int k = 0; k < touches; ++k) {
            const std::uint64_t a = lines.front();
            lines.erase(lines.begin());
            lines.push_back(a);
            for (int i = 0; i < run; ++i) {
                ops.push_back(MicroOp::load(a + 8 * (i % 8)));
                ops.push_back(MicroOp::intAlu());
            }
            if (!store)
                continue;
            ops.push_back(MicroOp::store(a));
            for (int i = 0; i < run; ++i) {
                ops.push_back(i % 3 ? MicroOp::load(a + 8 * (i % 8))
                                    : MicroOp::store(a + 8 * (i % 8)));
                ops.push_back(MicroOp::fpAlu());
            }
        }
        ops.insert(ops.end(), extra.begin(), extra.end());
        lines.erase(lines.begin());
        fill(ops);
    }

    /** Reload every line the model holds (all hits when exact). */
    void reload(std::vector<MicroOp> &ops) const
    {
        for (std::uint64_t a : lines)
            ops.push_back(MicroOp::load(a));
    }

  private:
    void fill(std::vector<MicroOp> &ops)
    {
        const std::uint64_t a = setAddr(set, next_tag++);
        ops.push_back(MicroOp::load(a));
        lines.push_back(a);
    }

    std::uint64_t set;
    std::uint64_t next_tag;
    std::minstd_rand rng;
    std::vector<std::uint64_t> lines;  ///< LRU first
};

/**
 * One static phase of @p cores tasks (one per core), task t built by
 * @p build from its own LruRounds over set 3 + 10 t.
 */
ParallelProgram
lruRoundsProgram(
    int cores, unsigned seed,
    const std::function<void(std::size_t, LruRounds &,
                             std::vector<MicroOp> &)> &build)
{
    ParallelProgram prog("lru_rounds");
    Phase p;
    p.kind = PhaseKind::ParallelStatic;
    p.num_tasks = static_cast<std::size_t>(cores);
    p.make_task = [build, seed](std::size_t t)
        -> std::unique_ptr<OpStream> {
        LruRounds rounds(3 + 10 * t, 1000 * (t + 1),
                         seed * 31 + static_cast<unsigned>(t));
        std::vector<MicroOp> ops;
        rounds.warm(ops);
        build(t, rounds, ops);
        rounds.reload(ops);
        return std::make_unique<VectorOpStream>(std::move(ops));
    };
    prog.addPhase(std::move(p));
    return prog;
}

// The three LruRounds cases below each sweep kSeeds seeds: a wrong
// touch shows only when a later round reaches the line it moved. With
// eight seeds, a commit that skips one hit entry, or replays one
// twice, fails at least one of the cases. The two cases without a
// second core's coherence traffic also sweep the core count: one
// core is the post-sprint single-core phase, which runs on the same
// stride probe and commit.
constexpr unsigned kSeeds = 8;
constexpr int kCoreCounts[] = {1, 2};

TEST(MachineDeterminism, SampleBoundarySplitsSameLineRun)
{
    // Runs of 2 x 130 to 2 x 349 cycles cross the 1000-cycle sample
    // boundaries at every offset. The stride probe stops at a
    // boundary and the next probe continues the same line without a
    // new hit entry, so the commit after the boundary must count the
    // continuation as repeats of the line committed before it.
    constexpr int kRounds = 60;
    for (int cores : kCoreCounts) {
        for (unsigned seed = 1; seed <= kSeeds; ++seed) {
            auto make = [cores, seed] {
                return lruRoundsProgram(
                    cores, seed,
                    [seed](std::size_t t, LruRounds &r,
                           std::vector<MicroOp> &ops) {
                        for (int i = 0; i < kRounds; ++i)
                            r.round(ops,
                                    130 + static_cast<int>(
                                              (i * 37 + t * 11 + seed) %
                                              220),
                                    false);
                    });
            };
            SCOPED_TRACE("cores " + std::to_string(cores) + ", seed " +
                         std::to_string(seed));
            const RunCapture ev = expectLoopsAgree(
                make, cfgOf(cores, cores), recordingHook);
            for (const CacheStats &l1 : ev.l1)
                EXPECT_EQ(l1.misses, 8u + kRounds);
            EXPECT_GT(ev.samples.size(), 40u);
        }
    }
}

TEST(MachineDeterminism, InvalidationInsideDeferredSameLineRun)
{
    // Core 1 reloads a shared line once per round; core 0 stores it
    // once per round of its own, over three times as many rounds. A
    // store that finds core 1's copy invalidates it, often while core
    // 1 sits in a deferred same-line run, so precommitL1Targets
    // commits a prefix of that run: the partial commit must replay
    // exactly the entries of the line changes in the prefix, then
    // drop the rest for re-probing.
    constexpr int kRounds = 150;
    const std::uint64_t shared = setAddr(60, 7);
    for (unsigned seed = 1; seed <= kSeeds; ++seed) {
        auto make = [shared, seed] {
            return lruRoundsProgram(
                2, seed,
                [shared, seed](std::size_t t, LruRounds &r,
                               std::vector<MicroOp> &ops) {
                    for (int i = 0; i < (t == 0 ? 3 : 1) * kRounds; ++i) {
                        if (t == 0) {
                            r.round(ops,
                                    23 + static_cast<int>(i + seed) % 17,
                                    false, {MicroOp::store(shared)});
                        } else {
                            r.round(ops,
                                    6 + static_cast<int>(i * 7 + seed) % 13,
                                    false, {MicroOp::load(shared)});
                        }
                    }
                });
        };
        SCOPED_TRACE(seed);
        const RunCapture ev =
            expectLoopsAgree(make, cfgOf(2, 2), recordingHook);
        // The fills, plus the shared line: core 0 misses it once and
        // then upgrades its copy; core 1 misses it cold and after each
        // invalidation that a later reload finds.
        EXPECT_EQ(ev.l1[0].misses, 8u + 3u * kRounds + 1u);
        const std::uint64_t inv = ev.l1[1].invalidations;
        EXPECT_GE(ev.l1[1].misses, 8u + kRounds + inv);
        EXPECT_LE(ev.l1[1].misses, 8u + kRounds + inv + 1u);
        EXPECT_GT(inv, kRounds / 2u);
    }
}

TEST(MachineDeterminism, StoreAfterLoadsOfCleanLineEndsRun)
{
    // Each run loads its line and then stores to it. A line filled by
    // a load is clean, so that store needs an S->M upgrade through
    // the L2 and must end the stride run even though it repeats the
    // line of the loads before it; a line stored in an earlier round
    // is dirty, and the same store is a local hit with no new entry.
    constexpr int kRounds = 40;
    for (int cores : kCoreCounts) {
        for (unsigned seed = 1; seed <= kSeeds; ++seed) {
            auto make = [cores, seed] {
                return lruRoundsProgram(
                    cores, seed,
                    [seed](std::size_t t, LruRounds &r,
                           std::vector<MicroOp> &ops) {
                        for (int i = 0; i < kRounds; ++i)
                            r.round(ops,
                                    40 + static_cast<int>(
                                             (i * 13 + t * 7 + seed) % 90),
                                    true);
                    });
            };
            SCOPED_TRACE("cores " + std::to_string(cores) + ", seed " +
                         std::to_string(seed));
            const RunCapture ev = expectLoopsAgree(
                make, cfgOf(cores, cores), recordingHook);
            for (const CacheStats &l1 : ev.l1) {
                EXPECT_EQ(l1.misses, 8u + kRounds);
                EXPECT_GT(l1.dirty_evictions, 0u);
            }
            // The fills, plus at least one S->M upgrade per core.
            EXPECT_GT(ev.l2.hits + ev.l2.misses,
                      static_cast<std::uint64_t>(cores) * (8u + kRounds));
        }
    }
}

/**
 * Threads that share a read-only table and own a private stripe: every
 * table line gains many sharers, and stores hit dirty private lines.
 */
ParallelProgram
sharedTableProgram(const char *name, std::size_t threads, int iters)
{
    ParallelProgram prog(name);
    Phase p;
    p.kind = PhaseKind::ParallelStatic;
    p.num_tasks = threads;
    p.make_task = [iters](std::size_t t) -> std::unique_ptr<OpStream> {
        std::vector<MicroOp> ops;
        for (int i = 0; i < iters; ++i) {
            const std::uint64_t table = 0x2000 + 64 * (i % 41);
            for (int k = 0; k < 4; ++k)
                ops.push_back(MicroOp::load(table + 8 * k));
            ops.push_back(MicroOp::intAlu());
            const std::uint64_t mine =
                0x400000 + t * 0x10000 + 64 * (i % 90);
            for (int k = 0; k < 3; ++k)
                ops.push_back(MicroOp::store(mine + 8 * k));
            ops.push_back(MicroOp::load(mine));
        }
        return std::make_unique<VectorOpStream>(std::move(ops));
    };
    prog.addPhase(std::move(p));
    return prog;
}

TEST(MachineDeterminism, ConsolidatedMemoryThreadsMultiplexOnCoreZero)
{
    // Sixteen memory-heavy threads consolidate mid-run and then
    // multiplex on core 0 under quantum preemption, running the
    // single-core batch path across context switches.
    auto make = [] { return sharedTableProgram("mux_mem", 16, 1500); };
    MachineConfig cfg = cfgOf(16, 16);
    cfg.thread_quantum = 6000;
    const RunCapture ev =
        expectLoopsAgree(make, cfg, consolidatingHook(15e-6));
    EXPECT_EQ(ev.active_cores, 1);
}

TEST(MachineDeterminism, ManyCoreConsolidationOverSpilledEntries)
{
    // 128 cores put well over kInlineSharers sharers on every table
    // line, so the consolidation's single directory pass drops 127
    // cores from spilled overflow blocks (and from full-map bitsets).
    auto make = [] { return sharedTableProgram("wide_mux", 128, 120); };
    for (DirectoryKind kind :
         {DirectoryKind::Sparse, DirectoryKind::FullMap}) {
        SCOPED_TRACE(kind == DirectoryKind::Sparse ? "sparse" : "full map");
        MachineConfig cfg = cfgOf(128, 128);
        cfg.l2.directory = kind;
        const RunCapture ev =
            expectLoopsAgree(make, cfg, consolidatingHook(1e-6));
        EXPECT_EQ(ev.active_cores, 1);
        if (kind == DirectoryKind::Sparse) {
            EXPECT_GT(ev.l2.directory_spills, 0u);
        }
    }
}

TEST(MachineDeterminism, FrequencyThrottleAndEnergySwapMidRun)
{
    auto make = [] {
        ParallelProgram prog("throttle");
        prog.addPhase(aluPhase(PhaseKind::ParallelStatic, 4, 120000));
        return prog;
    };
    HookFactory hook = [](RunCapture &capture) {
        auto stage = std::make_shared<int>(0);
        return [&capture, stage](Machine &m, Seconds dt, Joules e) {
            capture.samples.emplace_back(dt, e);
            if (*stage == 0 && m.stats().ops_retired > 100000) {
                *stage = 1;
                m.setFrequencyMult(0.5);
                m.setEnergyModel(
                    InstructionEnergyModel().boosted(1.5));
            } else if (*stage == 1 &&
                       m.stats().ops_retired > 300000) {
                *stage = 2;
                m.setFrequencyMult(1.0);
                m.setEnergyModel(InstructionEnergyModel());
            }
        };
    };
    expectLoopsAgree(make, cfgOf(4, 4), hook);
}

TEST(MachineDeterminism, AbortStopsAtTheSameCycle)
{
    auto make = [] {
        ParallelProgram prog("abort");
        prog.addPhase(aluPhase(PhaseKind::Serial, 1, 4000000));
        return prog;
    };
    HookFactory hook = [](RunCapture &capture) {
        return [&capture](Machine &m, Seconds dt, Joules e) {
            capture.samples.emplace_back(dt, e);
            if (m.simTime() > 40e-6)
                m.abort();
        };
    };
    expectLoopsAgree(make, cfgOf(1, 1), hook);
}

TEST(MachineDeterminism, KernelProgramsMatchOnAllKernels)
{
    for (KernelId id : allKernels()) {
        auto make = [id] {
            return buildKernelProgram(id, InputSize::A, 42);
        };
        SCOPED_TRACE(kernelName(id));
        expectLoopsAgree(make, cfgOf(16, 16), recordingHook);
    }
}

/**
 * A 2 KB 4-way L1 (8 sets): every kernel's working set conflicts in
 * it, so lines move between ways between probes and the stride
 * probe's way hints and line memo go stale all the time.
 */
MachineConfig
tinyL1(MachineConfig cfg)
{
    cfg.l1_bytes = 2 * 1024;
    cfg.l1_assoc = 4;
    return cfg;
}

TEST(MachineDeterminism, TinyL1ConflictsMatchAtEveryCoreCount)
{
    // Sixteen threads of two seed-rotated kernels on each of 1, 2, 4
    // and 16 cores: multiplexed, partly and fully spread.
    const std::vector<KernelId> &kernels = allKernels();
    const std::uint64_t seed = diffSeed();
    std::uint64_t turn = 0;
    for (int cores : {1, 2, 4, 16}) {
        for (int k = 0; k < 2; ++k) {
            const KernelId id = kernels[(seed + turn++) % kernels.size()];
            auto make = [id, seed] {
                return buildKernelProgram(id, InputSize::A, seed);
            };
            SCOPED_TRACE(kernelName(id) + " on " + std::to_string(cores) +
                         " cores, seed " + std::to_string(seed));
            const RunCapture ev = expectLoopsAgree(
                make, tinyL1(cfgOf(cores, 16)), recordingHook);
            std::uint64_t evictions = 0;
            for (const CacheStats &l1 : ev.l1)
                evictions += l1.evictions;
            EXPECT_GT(evictions, 0u);
        }
    }
}

TEST(MachineDeterminism, TinyL1SuspendedMachineResumesFromBytes)
{
    // A preemptive train on the tiny L1: a heavy task is suspended
    // mid-run, and the checkpoint goes through its bytes after every
    // task. The restored machines start every set's way hint at way
    // 0, and the run must still equal the uninterrupted one and the
    // reference loop bit for bit.
    ScenarioConfig cfg;
    cfg.platform = SprintConfig::parallelSprint(16, kFullPcm);
    cfg.platform.machine = tinyL1(cfg.platform.machine);
    cfg.policy.kind = SprintPolicyKind::Qos;
    cfg.policy.pacing_period = 2.5e-3;
    cfg.policy.service_prior = 2e-3;
    cfg.policy.qos_slack = 1.5;
    cfg.pattern = ArrivalPattern::Periodic;
    cfg.num_tasks = 4;
    cfg.period = 2e-4;
    const std::vector<KernelId> &kernels = allKernels();
    cfg.kernel = kernels[diffSeed() % kernels.size()];
    cfg.size = InputSize::A;
    cfg.seed = diffSeed();
    cfg.task_tuner = [seed = cfg.seed](ScenarioTask &task) {
        const bool heavy = task.seed == seed;
        task.priority = heavy ? 0 : 1;
        task.size = heavy ? InputSize::C : InputSize::A;
        task.deadline = heavy ? 0.0 : 2e-3;
    };
    SCOPED_TRACE(kernelName(cfg.kernel) + ", seed " +
                 std::to_string(cfg.seed));

    const ScenarioResult direct = runScenario(cfg);
    ASSERT_GT(direct.preemptions, 0);

    ScenarioCheckpoint ck = beginScenario(cfg);
    bool suspended = false;
    for (bool done = ck.done; !done;) {
        done = advanceScenario(cfg, ck, 1);
        for (const auto &ex : ck.ready)
            suspended = suspended || (ex->machine && ex->machine->suspended());
        ck = deserializeCheckpoint(cfg, serializeCheckpoint(cfg, ck));
    }
    EXPECT_TRUE(suspended) << "no checkpoint carried a suspended machine";
    EXPECT_EQ(firstDifference(direct, finishScenario(cfg, std::move(ck))),
              "");

    ScenarioConfig ref = cfg;
    ref.platform.machine.loop = MachineLoop::Reference;
    EXPECT_EQ(firstDifference(direct, runScenario(ref)), "");
}

TEST(MachineDeterminism, ManyCoreSparseMatchesFullMap)
{
    // 256 cores reading one shared table puts >64 sharers on each
    // line — past the old one-word bitmask cap, so every entry lives
    // in an overflow bitset — and periodic stores to the table force
    // wide invalidation storms. Sparse and full-map directories must
    // agree bit-for-bit.
    auto make = [] {
        ParallelProgram prog("manycore_shared");
        Phase p;
        p.kind = PhaseKind::ParallelStatic;
        p.num_tasks = 256;
        p.make_task = [](std::size_t t) -> std::unique_ptr<OpStream> {
            std::vector<MicroOp> ops;
            for (int i = 0; i < 250; ++i) {
                ops.push_back(MicroOp::load(0x2000 + 64 * (i % 37)));
                ops.push_back(MicroOp::intAlu());
                if (t % 16 == 0 && i % 60 == 59)
                    ops.push_back(
                        MicroOp::store(0x2000 + 64 * (i % 37)));
            }
            return std::make_unique<VectorOpStream>(std::move(ops));
        };
        prog.addPhase(std::move(p));
        return prog;
    };
    MachineConfig sparse = cfgOf(256, 256);
    MachineConfig flat = sparse;
    flat.l2.directory = DirectoryKind::FullMap;
    const RunCapture s = runOnce(MachineLoop::EventDriven, make,
                                 sparse, recordingHook);
    const RunCapture f = runOnce(MachineLoop::EventDriven, make, flat,
                                 recordingHook);
    expectIdentical(s, f);
    EXPECT_GT(s.machine.ops_retired, 0u);
    EXPECT_GT(s.l2.invalidations_sent, 64u);
}

TEST(MachineDeterminism, RunsAt1024Cores)
{
    // The former 64-core ceiling: a 1024-core machine must construct,
    // run to completion, and match the reference loop bit-for-bit.
    auto make = [] {
        ParallelProgram prog("kilocored");
        Phase p;
        p.kind = PhaseKind::ParallelStatic;
        p.num_tasks = 1024;
        p.make_task = [](std::size_t) -> std::unique_ptr<OpStream> {
            std::vector<MicroOp> ops;
            for (int i = 0; i < 100; ++i) {
                ops.push_back(MicroOp::load(0x4000 + 64 * (i % 17)));
                ops.push_back(MicroOp::intAlu());
            }
            return std::make_unique<VectorOpStream>(std::move(ops));
        };
        prog.addPhase(std::move(p));
        return prog;
    };
    const RunCapture ref = runOnce(MachineLoop::Reference, make,
                                   cfgOf(1024, 1024), recordingHook);
    const RunCapture ev = runOnce(MachineLoop::EventDriven, make,
                                  cfgOf(1024, 1024), recordingHook);
    EXPECT_EQ(ev.machine.ops_retired, 1024u * 200u);
    expectIdentical(ref, ev);
}

TEST(MachineDeterminism, CoupledJunctionTraceIdentical)
{
    // The full coupled simulation of the paper's evaluation: the
    // governor-driven sprint (exhaustion, consolidation, throttling)
    // must produce the exact same junction-temperature trace and
    // RunResult whichever scheduler loop runs the machine.
    for (Grams pcm : {kSmallPcm, kFullPcm}) {
        ExperimentSpec spec;
        spec.kernel = KernelId::Sobel;
        spec.size = InputSize::A;
        spec.cores = 16;
        spec.pcm_mass = pcm;

        spec.loop = MachineLoop::Reference;
        const RunResult ref = runParallelSprintExperiment(spec);
        spec.loop = MachineLoop::EventDriven;
        const RunResult ev = runParallelSprintExperiment(spec);

        EXPECT_EQ(ref.machine.cycles, ev.machine.cycles);
        EXPECT_EQ(ref.machine.ops_retired, ev.machine.ops_retired);
        EXPECT_EQ(ref.machine.idle_cycles, ev.machine.idle_cycles);
        EXPECT_EQ(ref.machine.sleep_cycles, ev.machine.sleep_cycles);
        EXPECT_EQ(ref.machine.dynamic_energy,
                  ev.machine.dynamic_energy);
        EXPECT_EQ(ref.task_time, ev.task_time);
        EXPECT_EQ(ref.peak_junction, ev.peak_junction);
        EXPECT_EQ(ref.sprint_exhausted, ev.sprint_exhausted);
        EXPECT_EQ(ref.hardware_throttled, ev.hardware_throttled);
        ASSERT_EQ(ref.junction_trace.size(), ev.junction_trace.size());
        for (std::size_t i = 0; i < ref.junction_trace.size(); ++i) {
            ASSERT_EQ(ref.junction_trace.valueAt(i),
                      ev.junction_trace.valueAt(i))
                << "junction trace diverged at sample " << i
                << " (pcm " << pcm << " g)";
        }
    }
}

} // namespace
} // namespace csprint
