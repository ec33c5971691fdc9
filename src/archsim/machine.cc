#include "archsim/machine.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace csprint {

namespace {

/**
 * The stride probe's register tally: kTallyKinds per-kind op counts of
 * kTallyCountBits each, packed in one 64-bit word and flushed at
 * least every kTallyMaxRun ops (the largest count a field holds).
 * probeLocalRun adds one tallyOf per verified op and drains the word
 * into Core::probe_counts.
 */
constexpr std::size_t kTallyKinds = 5;
constexpr unsigned kTallyCountBits = 12;
constexpr std::uint64_t kTallyMaxRun = (1u << kTallyCountBits) - 1;
static_assert(kTallyKinds * kTallyCountBits <= 64,
              "packed probe tally exceeds one word");
// Op kinds a stride run can hold: IntAlu..Branch, indices 0..4.
static_assert(opKindIndex(OpKind::IntAlu) < kTallyKinds &&
                  opKindIndex(OpKind::FpAlu) < kTallyKinds &&
                  opKindIndex(OpKind::Load) < kTallyKinds &&
                  opKindIndex(OpKind::Store) < kTallyKinds &&
                  opKindIndex(OpKind::Branch) < kTallyKinds,
              "local op kinds must fit the packed tally");

/** One op of @p kind in a packed tally. */
constexpr std::uint64_t
tallyOf(OpKind kind)
{
    return std::uint64_t(1) << (kTallyCountBits * opKindIndex(kind));
}

/** Add the per-kind fields of the packed tally @p counts to @p dst. */
template <typename Count>
void
addTally(std::uint64_t counts, std::array<Count, kNumOpKinds> &dst)
{
    for (std::size_t k = 0; k < kTallyKinds; ++k)
        dst[k] += static_cast<Count>(
            (counts >> (kTallyCountBits * k)) & kTallyMaxRun);
}

} // namespace

MachineConfig
MachineConfig::paper16(int threads)
{
    MachineConfig cfg;
    cfg.num_cores = 16;
    cfg.num_threads = threads;
    return cfg;
}

Machine::Machine(const MachineConfig &config,
                 const ParallelProgram &prog)
    : cfg(config), program(prog), freq_mult(config.freq_mult)
{
    SPRINT_ASSERT(cfg.num_cores >= 1 &&
                      cfg.num_cores <= MachineConfig::kMaxCores,
                  "core count must be in [1, kMaxCores]");
    SPRINT_ASSERT(cfg.num_threads >= 1, "need at least one thread");
    SPRINT_ASSERT(freq_mult > 0.0, "bad frequency multiplier");
    SPRINT_ASSERT(cfg.line_bytes > 0 &&
                      (cfg.line_bytes & (cfg.line_bytes - 1)) == 0,
                  "line size must be a power of two");
    line_shift = 0;
    while ((std::size_t(1) << line_shift) < cfg.line_bytes)
        ++line_shift;

    memory = std::make_unique<MemorySystem>(cfg.memory,
                                            cfg.nominal_clock, freq_mult);
    l2 = std::make_unique<SharedL2>(cfg.l2, *memory, cfg.num_cores);
    peek_targets.resize(cfg.num_cores);
    l1_mutated.resize(cfg.num_cores);

    l1s.reserve(cfg.num_cores);
    cores.resize(cfg.num_cores);
    next_event.assign(cfg.num_cores, 0);
    reach.assign(cfg.num_cores, 0);
    qend.assign(cfg.num_cores, kNever);
    for (int c = 0; c < cfg.num_cores; ++c) {
        l1s.emplace_back(cfg.l1_bytes, cfg.l1_assoc, cfg.line_bytes);
        cores[c].id = c;
        cores[c].active = true;
    }
    active_cores = cfg.num_cores;

    threads.resize(cfg.num_threads);
    for (int t = 0; t < cfg.num_threads; ++t) {
        threads[t].id = static_cast<std::size_t>(t);
        threads[t].buf.resize(kOpBufferCap);
        cores[t % cfg.num_cores].run_queue.push_back(t);
    }

    enterPhase(0);
}

void
Machine::setSampleHook(SampleHook new_hook, Cycles quantum)
{
    SPRINT_ASSERT(quantum > 0, "sampling quantum must be positive");
    hook = std::move(new_hook);
    sample_quantum = quantum;
}

void
Machine::setEnergyModel(const InstructionEnergyModel &model)
{
    // Price everything accrued so far with the outgoing model.
    flushEnergy();
    cfg.energy = model;
}

bool
Machine::finished() const
{
    return phase_idx >= program.phases().size();
}

void
Machine::enterPhase(std::size_t index)
{
    phase_idx = index;
    if (finished())
        return;
    const Phase &phase = program.phases()[index];
    SPRINT_ASSERT(phase.make_task != nullptr || phase.num_tasks == 0,
                  "phase needs a task factory");

    barrier_count = 0;
    serial_next_task = 0;
    dynamic_next_task = 0;
    dequeue_free_at = cycle;

    const std::size_t n = phase.num_tasks;
    const std::size_t nt = threads.size();
    for (std::size_t t = 0; t < nt; ++t) {
        Thread &thread = threads[t];
        thread.stream.reset();
        thread.at_barrier = false;
        thread.buf_pos = 0;
        thread.buf_len = 0;
        thread.spin_failures = 0;
        if (phase.kind == PhaseKind::ParallelStatic) {
            thread.next_task = t * n / nt;
            thread.task_end = (t + 1) * n / nt;
        } else {
            thread.next_task = 0;
            thread.task_end = 0;
        }
    }
}

bool
Machine::threadRunnable(const Thread &thread, Cycles now) const
{
    return !thread.at_barrier && now >= thread.sleep_until;
}

bool
Machine::acquireNextTask(Thread &thread, Cycles now)
{
    const Phase &phase = program.phases()[phase_idx];
    auto to_barrier = [&]() {
        thread.at_barrier = true;
        ++barrier_count;
        ++totals.barrier_arrivals;
        return false;
    };

    switch (phase.kind) {
      case PhaseKind::Serial:
        if (thread.id != 0)
            return to_barrier();
        if (serial_next_task >= phase.num_tasks)
            return to_barrier();
        thread.current_task = serial_next_task;
        thread.stream = phase.make_task(serial_next_task++);
        return true;

      case PhaseKind::ParallelStatic:
        if (thread.next_task >= thread.task_end)
            return to_barrier();
        thread.current_task = thread.next_task;
        thread.stream = phase.make_task(thread.next_task++);
        return true;

      case PhaseKind::ParallelDynamic:
        if (dynamic_next_task >= phase.num_tasks)
            return to_barrier();
        if (now < dequeue_free_at)
            return false;  // dequeue lock held: spin this cycle
        dequeue_free_at = now + cfg.task_dequeue_cycles;
        thread.current_task = dynamic_next_task;
        thread.stream = phase.make_task(dynamic_next_task++);
        return true;
    }
    SPRINT_PANIC("unknown phase kind");
}

bool
Machine::refillOps(Thread &thread)
{
    thread.buf_len = thread.stream->fillInto(thread.buf);
    thread.buf_pos = 0;
    return thread.buf_len > 0;
}

void
Machine::flushEnergy()
{
    std::uint64_t retired = 0;
    for (std::size_t k = 0; k < kNumOpKinds; ++k) {
        const std::uint64_t n = tally.ops[k];
        if (n == 0)
            continue;
        tally.ops[k] = 0;
        retired += n;
        totals.ops_by_kind[k] += n;
        totals.dynamic_energy +=
            static_cast<double>(n) *
            cfg.energy.opEnergy(static_cast<OpKind>(k));
    }
    totals.ops_retired += retired;
    if (tally.idle_ticks != 0) {
        totals.dynamic_energy +=
            static_cast<double>(tally.idle_ticks) *
            cfg.energy.idleCycleEnergy();
        tally.idle_ticks = 0;
    }
    if (tally.l2_accesses != 0) {
        totals.dynamic_energy +=
            static_cast<double>(tally.l2_accesses) *
            cfg.energy.l2AccessEnergy();
        tally.l2_accesses = 0;
    }
    if (tally.dram_accesses != 0) {
        totals.dynamic_energy +=
            static_cast<double>(tally.dram_accesses) *
            cfg.energy.dramAccessEnergy();
        tally.dram_accesses = 0;
    }
}

void
Machine::syncCacheTotals()
{
    // The per-Cache counters are the single source of truth; the
    // MachineStats fields only mirror them for observers.
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    for (const auto &l1 : l1s) {
        hits += l1.stats().hits;
        misses += l1.stats().misses;
    }
    totals.l1_hits = hits;
    totals.l1_misses = misses;
}

void
Machine::precommitL1Targets(std::uint64_t line, bool write,
                            int requester, Cycles now)
{
    // Deferred stride runs exist only in the event-driven loop; skip
    // the directory peek entirely otherwise.
    if (cfg.loop == MachineLoop::Reference)
        return;
    // This access is about to perform coherence actions on other
    // cores' L1s. Any deferred stride run of an affected core holds
    // ops that were verified against the pre-mutation state: replay
    // them first. Within one cycle the reference loop ticks cores in
    // id order, so a lower-id core's op on the mutation cycle itself
    // executes *before* this access (commit through `now`
    // inclusive — the stride scan guarantees its coverage extends
    // past `now`, else that core would have been dispatched first),
    // while a higher-id core's op at `now` comes after the mutation
    // and is re-evaluated once the stale probe is dropped.
    l2->peekL1Targets(line, write, requester, peek_targets);
    peek_targets.forEach([&](int y) {
        if (y == requester)
            return;
        Core &cy = cores[y];
        const Cycles ty = next_event[y];
        if (!cy.active || ty > now || !streamCapable(cy, ty))
            return;
        const Cycles k = now - ty + (y < requester ? 1 : 0);
        if (k > 0 && k <= cy.probe_local)
            commitRun(cy, ty, k);
    });
}

Cycles
Machine::memoryAccess(Core &core, bool write, std::uint64_t addr,
                      Cycles now)
{
    const std::uint64_t line = addr >> line_shift;
    Cache &l1 = l1s[core.id];

    // A dirty local copy is exclusive (MESI M state); loads and
    // stores to it complete locally. A store to a clean copy needs a
    // directory upgrade (S -> M) that invalidates other sharers.
    if (l1.accessIfPresent(line, write))
        return 1;

    if (write && l1.contains(line)) {
        precommitL1Targets(line, true, core.id, now);
        const Cycles lat = l2->access(line, true, core.id, now, l1s);
        l1.access(line, true);  // data was local; only ownership moved
        return std::max<Cycles>(1, lat);
    }

    precommitL1Targets(line, write, core.id, now);
    const Cycles lat = l2->access(line, write, core.id, now, l1s);
    CacheAccessResult fill = l1.access(line, write);
    if (fill.evicted && fill.evicted_dirty)
        l2->writebackFromL1(fill.evicted_line, core.id, now + lat);
    return std::max<Cycles>(1, lat);
}

void
Machine::executeOp(Core &core, Thread &thread, const MicroOp &op,
                   Cycles now)
{
    switch (op.kind()) {
      case OpKind::IntAlu:
      case OpKind::FpAlu:
      case OpKind::Branch:
        chargeOp(op.kind());
        core.busy_until = now + 1;
        ++thread.buf_pos;
        return;

      case OpKind::Pause: {
        chargeOp(op.kind());
        ++thread.buf_pos;
        thread.sleep_until = now + cfg.pause_sleep_cycles;
        totals.sleep_cycles += cfg.pause_sleep_cycles;
        chargeIdle(cfg.pause_sleep_cycles);
        core.current = -1;  // yield the core
        core.busy_until = now + 1;
        return;
      }

      case OpKind::Load:
      case OpKind::Store: {
        chargeOp(op.kind());
        const Cycles lat = memoryAccess(core, op.kind() == OpKind::Store,
                                        op.addr(), now);
        if (lat > 1) {
            chargeIdle(lat - 1);
            // Accesses past the L1 burn L2/DRAM energy.
            ++tally.l2_accesses;
            if (lat > cfg.l2.hit_latency + cfg.l2.coherence_penalty + 1)
                ++tally.dram_accesses;
        }
        core.busy_until = now + lat;
        ++thread.buf_pos;
        return;
      }

      case OpKind::LockAcquire: {
        if (op.addr() >= locks.size()) {
            SPRINT_ASSERT(op.addr() < kMaxLockId,
                          "lock id out of sanity range");
            locks.resize(op.addr() + 1);
        }
        LockState &lock = locks[op.addr()];
        if (lock.holder < 0) {
            lock.holder = static_cast<int>(thread.id);
            chargeOp(op.kind());
            thread.spin_failures = 0;
            ++thread.buf_pos;
            core.busy_until = now + 2;
        } else {
            // Spin; after enough failures, PAUSE-sleep (Section 8.1).
            ++thread.spin_failures;
            chargeIdle(2);
            if (thread.spin_failures >= cfg.spin_tries_before_pause) {
                thread.spin_failures = 0;
                thread.sleep_until = now + cfg.pause_sleep_cycles;
                totals.sleep_cycles += cfg.pause_sleep_cycles;
                chargeIdle(cfg.pause_sleep_cycles);
                core.current = -1;
            }
            core.busy_until = now + 2;
        }
        return;
      }

      case OpKind::LockRelease: {
        SPRINT_ASSERT(op.addr() < locks.size() &&
                          locks[op.addr()].holder ==
                              static_cast<int>(thread.id),
                      "release of a lock not held by this thread");
        locks[op.addr()].holder = -1;
        chargeOp(op.kind());
        ++thread.buf_pos;
        core.busy_until = now + 1;
        return;
      }
    }
    SPRINT_PANIC("unknown op kind");
}

bool
Machine::streamCapable(const Core &core, Cycles now) const
{
    // True when the core's next actions are fully described by its
    // current thread's buffered ops: a tick at `now` would neither
    // reschedule, preempt, refill, nor sleep.
    if (core.current < 0 || core.idle_repeat)
        return false;
    const Thread &t = threads[core.current];
    if (t.at_barrier || now < t.sleep_until ||
        t.buf_pos >= t.buf_len)
        return false;
    if (core.run_queue.size() > 1 && now >= core.quantum_end)
        return false;
    return true;
}

void
Machine::probeLocalRun(Core &core, const Thread &thread, Cycles cap)
{
    // Extend the cached count of verified-local ops (each one cycle,
    // own-L1 only) from the thread's current buffer position, up to
    // @p cap ops or the first stride blocker.
    if (core.probe_blocked)
        return;
    const Cache::HitProbe l1 = l1s[core.id].hitProbe();
    const unsigned shift = line_shift;
    // Hoisted bounds: walk [p, goal) with one comparison per op;
    // stopping short of `goal` (for any reason other than the cap)
    // marks the blocker.
    const MicroOp *const base = thread.buf.data() + thread.buf_pos;
    const std::size_t avail = thread.buf_len - thread.buf_pos;
    const std::size_t want =
        cap < avail ? static_cast<std::size_t>(cap) : avail;
    const MicroOp *p = base + core.probe_local;
    const MicroOp *const goal = base + want;
    if (core.probe_mem.size() < thread.buf_len)
        core.probe_mem.resize(thread.buf_len);
    std::uint32_t *const mem = core.probe_mem.data();
    std::uint32_t *out = mem + core.probe_mem_len;
    std::uint64_t last_line = core.probe_line;
    // (line << 1 | store) of the last memory op verified in this
    // call: back-to-back accesses to one line are the common pattern
    // (stencil neighbours), and presence/dirtiness cannot change
    // inside a verified-local run. A store after loads of a clean
    // line changes the key, so its lookup still finds the upgrade.
    std::uint64_t memo_key = ~std::uint64_t(0);
    // Behind it, a 16-entry table of the same mapping, direct-mapped
    // by line & 15: stencils and sweeps come back to the lines they
    // just left, and nothing mutates the L1 inside this call, so an
    // entry found once stays the right one until the call returns.
    constexpr std::size_t kLineMemo = 16;
    std::array<std::uint64_t, kLineMemo> line_keys;
    line_keys.fill(~std::uint64_t(0));
    std::array<std::uint32_t, kLineMemo> line_entries{};
    while (p != goal) {
        const MicroOp *const stop =
            goal - p > static_cast<std::ptrdiff_t>(kTallyMaxRun)
                ? p + kTallyMaxRun
                : goal;
        std::uint64_t counts = 0;
        for (; p != stop; ++p) {
            const OpKind kind = p->kind();
            if (!isComputeOp(kind)) {
                if (!isMemoryOp(kind))
                    break;
                const bool store = kind == OpKind::Store;
                const std::uint64_t line = p->addr() >> shift;
                const std::uint64_t key = (line << 1) | store;
                if (key != memo_key) {
                    const std::size_t slot = line & (kLineMemo - 1);
                    if (line_keys[slot] != key) {
                        const std::uint32_t entry = l1.entry(line, store);
                        if (entry == Cache::HitProbe::kMiss)
                            break;
                        line_keys[slot] = key;
                        line_entries[slot] = entry;
                    }
                    memo_key = key;
                    if (line != last_line) {
                        *out++ = line_entries[slot];
                        last_line = line;
                    }
                }
            }
            counts += tallyOf(kind);
        }
        addTally(counts, core.probe_counts);
        if (p != stop)
            break;
    }
    core.probe_mem_len = static_cast<std::uint32_t>(out - mem);
    core.probe_line = last_line;
    core.probe_local = static_cast<std::uint32_t>(p - base);
    core.probe_blocked = p != goal || want < cap;
}

Cycles
Machine::coreWake(const Core &core, Cycles now) const
{
    // Earliest cycle >= now + 1 at which some thread in the run queue
    // becomes runnable; kNever while all are parked at the barrier (a
    // barrier release resets every core's next event) or the queue is
    // empty.
    Cycles wake = kNever;
    for (std::size_t idx : core.run_queue) {
        const Thread &t = threads[idx];
        if (t.at_barrier)
            continue;
        wake = std::min(wake, std::max(t.sleep_until, now + 1));
    }
    return wake;
}

void
Machine::settleIdle(Core &core, Cycles upto)
{
    // Charge the idle tick the reference loop would have issued on
    // every cycle of [idle_from, upto).
    if (core.idle_repeat && upto > core.idle_from) {
        chargeIdle(upto - core.idle_from);
        core.idle_from = upto;
    }
}

void
Machine::resetProbe(Core &core)
{
    core.probe_local = 0;
    core.probe_blocked = false;
    core.probe_counts.fill(0);
    core.probe_mem_pos = 0;
    core.probe_mem_len = 0;
    core.probe_line = kNoLine;
    core.commit_line = kNoLine;
}

void
Machine::tickCore(Core &core, Cycles now)
{
    core.idle_repeat = false;
    resetProbe(core);

    // Validate / preempt the current thread.
    if (core.current >= 0) {
        Thread &t = threads[core.current];
        if (!threadRunnable(t, now)) {
            core.current = -1;
        } else if (now >= core.quantum_end &&
                   core.run_queue.size() > 1) {
            core.current = -1;
        }
    }

    // Select the next runnable thread round-robin.
    if (core.current < 0) {
        const std::size_t n = core.run_queue.size();
        bool found = false;
        for (std::size_t k = 0; k < n; ++k) {
            const std::size_t idx =
                core.run_queue[(core.rr + k) % n];
            if (threadRunnable(threads[idx], now)) {
                core.rr = (core.rr + k + 1) % n;
                core.current = static_cast<int>(idx);
                core.quantum_end = now + cfg.thread_quantum;
                found = true;
                // Context-switch cost when multiplexing.
                if (n > 1) {
                    core.busy_until = now + cfg.context_switch_cycles;
                    chargeIdle(cfg.context_switch_cycles);
                    next_event[core.id] = core.busy_until;
                    return;
                }
                break;
            }
        }
        if (!found) {
            core.busy_until = now + 1;
            chargeIdle(1);
            core.idle_repeat = true;
            core.idle_from = now + 1;
            next_event[core.id] = coreWake(core, now);
            return;
        }
    }

    Thread &thread = threads[core.current];

    // Refill the op window, pulling fresh tasks when a stream drains.
    if (thread.buf_pos >= thread.buf_len) {
        while (true) {
            if (thread.stream && refillOps(thread))
                break;
            if (!acquireNextTask(thread, now)) {
                // Barrier or dequeue contention: nothing this cycle.
                const bool at_barrier = thread.at_barrier;
                if (at_barrier)
                    core.current = -1;
                core.busy_until = now + 1;
                chargeIdle(1);
                core.idle_repeat = true;
                core.idle_from = now + 1;
                next_event[core.id] =
                    at_barrier
                        ? coreWake(core, now)
                        : std::min(dequeue_free_at,
                                   core.run_queue.size() > 1
                                       ? core.quantum_end
                                       : kNever);
                return;
            }
            if (program.phases()[phase_idx].kind ==
                PhaseKind::ParallelDynamic) {
                // Charge the dequeue critical section.
                core.busy_until = now + cfg.task_dequeue_cycles;
                chargeIdle(cfg.task_dequeue_cycles);
                next_event[core.id] = core.busy_until;
                return;
            }
        }
    }

    executeOp(core, thread, thread.buf[thread.buf_pos], now);
    next_event[core.id] = core.busy_until;
}

void
Machine::maybeAdvanceBarrier()
{
    while (!finished() && barrier_count == threads.size())
        enterPhase(phase_idx + 1);
}

void
Machine::resetNextEvents()
{
    // Conservative re-arm after a structural change (barrier release,
    // consolidation): every active core is due no later than the next
    // cycle it could possibly act on. Idle bookkeeping is preserved so
    // the pending span is still charged when the core is processed.
    for (auto &core : cores) {
        next_event[core.id] =
            core.active ? std::max(core.busy_until, cycle + 1) : kNever;
        resetProbe(core);
        refreshScanCache(static_cast<std::size_t>(core.id));
    }
}

void
Machine::fireSampleHook()
{
    // Settle lazy idle spans so the hook observes exactly the totals
    // the reference loop would show at this boundary.
    for (auto &core : cores) {
        if (core.active)
            settleIdle(core, cycle);
    }
    flushEnergy();
    syncCacheTotals();
    const Seconds dt = static_cast<double>(sample_quantum) /
                       (cfg.nominal_clock * freq_mult);
    const Joules delta = totals.dynamic_energy - energy_at_last_sample;
    energy_at_last_sample = totals.dynamic_energy;
    next_sample_at += sample_quantum;
    hook(*this, dt, delta);
    if (events_dirty) {
        // The hook consolidated cores or re-queued threads: recompute
        // every wake-up conservatively.
        events_dirty = false;
        resetNextEvents();
    }
}

void
Machine::run()
{
    suspend_pending = false;
    was_suspended = false;
    next_sample_at =
        hook ? (cycle / sample_quantum + 1) * sample_quantum : kNever;
    if (cfg.loop == MachineLoop::Reference)
        runReference();
    else
        runEventLoop();
    // A suspend() that raced the final sample is moot: the program is
    // done and there is nothing to resume.
    was_suspended = suspend_pending && !finished();
    suspend_pending = false;
    finishRun();
}

void
Machine::resume()
{
    SPRINT_ASSERT(was_suspended, "resume() without a prior suspend()");
    run();
}

void
Machine::finishRun()
{
    for (auto &core : cores) {
        if (core.active)
            settleIdle(core, cycle);
    }
    flushEnergy();
    totals.cycles = cycle;
    totals.seconds = simTime();
    syncCacheTotals();
}

void
Machine::runReference()
{
    constexpr Cycles kMaxCycles = 200ULL * 1000 * 1000 * 1000;
    while (!finished() && !aborted && !suspend_pending) {
        for (auto &core : cores) {
            if (core.active && cycle >= core.busy_until)
                tickCore(core, cycle);
        }
        maybeAdvanceBarrier();
        ++cycle;
        if (cycle == next_sample_at)
            fireSampleHook();
        SPRINT_ASSERT(cycle < kMaxCycles,
                      "machine exceeded the cycle safety bound");
    }
}

void
Machine::commitRun(Core &core, Cycles from, Cycles k)
{
    // Replay @p k stride-verified local ops of the core's current
    // thread, occupying cycles [from, from + k). The probe guarantees
    // each replays as a one-cycle local op, and recorded the hit way
    // at each line change, so no lookup happens here.
    SPRINT_ASSERT(k <= core.probe_local,
                  "stride commit exceeds its probe");
    Thread &thread = threads[core.current];
    const std::uint32_t *const entries =
        core.probe_mem.data() + core.probe_mem_pos;
    std::uint32_t used = 0;        // entries replayed
    std::uint64_t mem_ops = 0;     // memory ops committed
    constexpr std::size_t kLoad = opKindIndex(OpKind::Load);
    constexpr std::size_t kStore = opKindIndex(OpKind::Store);
    if (k == core.probe_local) {
        // Full-run commit (the common case: the core reached its own
        // blocker): apply the aggregated counts and replay every
        // queued entry without touching the op array.
        mem_ops = core.probe_counts[kLoad] + core.probe_counts[kStore];
        for (std::size_t kd = 0; kd < kTallyKinds; ++kd) {
            tally.ops[kd] += core.probe_counts[kd];
            core.probe_counts[kd] = 0;
        }
        used = core.probe_mem_len - core.probe_mem_pos;
        core.probe_mem_pos = 0;
        core.probe_mem_len = 0;
        core.commit_line = core.probe_line;
    } else {
        // Partial commit (a coherence action truncates the run): walk
        // the prefix; a memory op consumes the next entry exactly
        // where the probe queued one, at a change of line.
        const unsigned shift = line_shift;
        const MicroOp *p = thread.buf.data() + thread.buf_pos;
        const MicroOp *const end = p + k;
        std::uint64_t last_line = core.commit_line;
        std::array<std::uint32_t, kNumOpKinds> n{};
        for (; p != end; ++p) {
            const OpKind kind = p->kind();
            ++n[opKindIndex(kind)];
            if (isMemoryOp(kind)) {
                const std::uint64_t line = p->addr() >> shift;
                used += line != last_line;
                last_line = line;
            }
        }
        mem_ops = n[kLoad] + n[kStore];
        for (std::size_t kd = 0; kd < kTallyKinds; ++kd) {
            tally.ops[kd] += n[kd];
            core.probe_counts[kd] -= n[kd];
        }
        core.probe_mem_pos += used;
        core.commit_line = last_line;
    }
    Cache &l1 = l1s[core.id];
    l1.commitHits(entries, used);
    l1.countHits(mem_ops - used);
    thread.buf_pos += static_cast<std::size_t>(k);
    core.probe_local -= static_cast<std::uint32_t>(k);
    core.busy_until = from + k;
    next_event[core.id] = from + k;
}

void
Machine::runEventLoop()
{
    constexpr Cycles kMaxCycles = 200ULL * 1000 * 1000 * 1000;
    const std::size_t ncores = cores.size();
    while (!finished() && !aborted && !suspend_pending) {
        // Find the earliest cycle at which anything non-local can
        // happen: a core's first op that is not a verified one-cycle
        // local op (L2-reaching access, lock, PAUSE, refill), a
        // scheduler wake-up/preemption, or the sample boundary. Every
        // streaming core's probe is extended to cover the horizon, so
        // ops before it are provably confined to their own L1 and
        // commute across cores; they are committed lazily — when
        // their core reaches a global op, when a coherence action
        // touches that core, or at a sample boundary.
        const Cycles *ne = next_event.data();
        const Cycles *re = reach.data();
        const Cycles *qe = qend.data();
        Cycles horizon = next_sample_at;
        int pick = -1;
        for (std::size_t c = 0; c < ncores; ++c) {
            const Cycles t = ne[c];
            if (t >= horizon)
                continue;
            // Fast path: the cached verified-local reach (clamped to
            // the preemption point) already covers the horizon.
            const Cycles r = std::min(re[c], qe[c]);
            if (r >= horizon)
                continue;
            Core &core = cores[c];
            if (r <= t && !streamCapable(core, t)) {
                // Plain scheduler event (wake-up, preemption, refill,
                // barrier pickup): handled by a normal tick at t.
                // (r < t only via a stale preemption point, which a
                // tick refreshes.)
                horizon = t;
                pick = static_cast<int>(c);
                continue;
            }
            Cycles cap = horizon - t;
            if (qe[c] - t < cap)
                cap = qe[c] - t;
            if (!core.probe_blocked && core.probe_local < cap) {
                // Probe the whole run at once, up to the core's own
                // blocker: only the sample boundary and the preemption
                // point bound it, not the current horizon, so a later
                // scan rarely has to probe this run again.
                probeLocalRun(core, threads[core.current],
                              std::min(next_sample_at, qe[c]) - t);
                reach[c] = t + core.probe_local;
            }
            const Cycles run = std::min<Cycles>(core.probe_local, cap);
            if (t + run < horizon) {
                horizon = t + run;
                pick = static_cast<int>(c);
            }
        }
        SPRINT_ASSERT(horizon != kNever,
                      "machine deadlock: no pending events");

        if (pick < 0) {
            // Nothing due before the sample boundary: commit every
            // deferred local run up to it and fire the hook.
            for (std::size_t c = 0; c < ncores; ++c) {
                const Cycles t = ne[c];
                if (t < horizon)
                    commitRun(cores[c], t, horizon - t);
            }
            cycle = horizon;
            fireSampleHook();
            SPRINT_ASSERT(cycle < kMaxCycles,
                          "machine exceeded the cycle safety bound");
            continue;
        }

        // One core acts at the horizon. Commit its own deferred run
        // first (its op at the horizon may depend on its L1 recency),
        // then tick it — in core-id order when several cores share
        // the cycle, because the scan keeps the first minimum.
        Core &core = cores[pick];
        {
            const Cycles t = ne[pick];
            if (t < horizon)
                commitRun(core, t, horizon - t);
            settleIdle(core, horizon);
            const std::size_t phase_before = phase_idx;
            tickCore(core, horizon);
            refreshScanCache(static_cast<std::size_t>(pick));
            cycle = horizon;
            maybeAdvanceBarrier();
            if (phase_idx != phase_before)
                resetNextEvents();
            if (finished()) {
                // Mirror the reference loop's final iteration: the
                // cycle completes (idle cores included — finishRun
                // settles their spans through this cycle) and the
                // clock advances once more before the loop exits.
                cycle += 1;
                if (cycle == next_sample_at)
                    fireSampleHook();
                continue;
            }
        }

        // If the tick performed coherence actions on other cores'
        // L1s, their probes beyond this cycle are stale: commit the
        // still-valid prefix (ops strictly before the mutation) and
        // drop the rest for re-probing.
        l2->takeL1Mutations(l1_mutated);
        l1_mutated.forEach([&](int y) {
            if (y == pick)
                return;
            Core &cy = cores[y];
            const Cycles ty = next_event[y];
            if (cy.active && ty < cycle && streamCapable(cy, ty))
                commitRun(cy, ty, cycle - ty);
            resetProbe(cy);
            reach[y] = next_event[y];
        });

        SPRINT_ASSERT(cycle < kMaxCycles,
                      "machine exceeded the cycle safety bound");
    }
}

void
Machine::warmStartFrom(Machine &prev)
{
    SPRINT_ASSERT(cycle == 0 && totals.ops_retired == 0 &&
                      totals.dynamic_energy == 0.0,
                  "warm start must precede run()");
    SPRINT_ASSERT(cfg.l1_bytes == prev.cfg.l1_bytes &&
                      cfg.l1_assoc == prev.cfg.l1_assoc &&
                      cfg.line_bytes == prev.cfg.line_bytes,
                  "warm start requires identical L1 geometry");
    // Adoption moves the predecessor's caches out, so a machine can
    // seed at most one successor; catch a reused source here rather
    // than crashing in the successor's first cache access.
    SPRINT_ASSERT(!prev.l1s.empty() && prev.l1s[0].numSlots() > 0,
                  "warm start source already consumed");
    // Narrowing re-activation: cores this machine does not have lose
    // their L1 contents. Dropping them from the predecessor's
    // directory first keeps the adopted directory consistent with the
    // adopted L1 set (dropCores recalls dirty lines into the L2, so no
    // data is lost to the model).
    if (prev.cfg.num_cores > cfg.num_cores) {
        CoreSet gone(prev.cfg.num_cores);
        for (int c = cfg.num_cores; c < prev.cfg.num_cores; ++c)
            gone.add(c);
        prev.l2->dropCores(gone, prev.l1s);
    }
    const int shared = std::min(cfg.num_cores, prev.cfg.num_cores);
    for (int c = 0; c < shared; ++c) {
        l1s[c] = std::move(prev.l1s[c]);
        l1s[c].resetStats();
    }
    l2->adoptState(std::move(*prev.l2));
    // DRAM channels do not drain just because the cores re-activated:
    // occupancy outstanding at the predecessor's final cycle carries
    // into this machine's cycle domain (this machine starts at 0).
    memory->adoptChannelState(*prev.memory, prev.cycle, cycle);
}

void
Machine::consolidateToSingleCore()
{
    if (active_cores == 1)
        return;
    std::vector<std::size_t> all_threads;
    CoreSet gone(cfg.num_cores);
    for (auto &core : cores) {
        for (std::size_t t : core.run_queue)
            all_threads.push_back(t);
        core.run_queue.clear();
        core.current = -1;
        core.idle_repeat = false;
        if (core.id != 0) {
            core.active = false;
            gone.add(core.id);
        }
    }
    l2->dropCores(gone, l1s);
    std::sort(all_threads.begin(), all_threads.end());
    cores[0].run_queue = std::move(all_threads);
    cores[0].rr = 0;
    cores[0].busy_until =
        std::max(cores[0].busy_until, cycle + cfg.migration_cycles);
    chargeIdle(cfg.migration_cycles);
    active_cores = 1;
    events_dirty = true;
}

void
Machine::setFrequencyMult(double mult)
{
    SPRINT_ASSERT(mult > 0.0, "bad frequency multiplier");
    // Fold elapsed wall time at the old frequency.
    time_base += static_cast<double>(cycle - cycle_base) /
                 (cfg.nominal_clock * freq_mult);
    cycle_base = cycle;
    freq_mult = mult;
    memory->setFrequencyMult(mult, cycle);
}

Seconds
Machine::simTime() const
{
    return time_base + static_cast<double>(cycle - cycle_base) /
                           (cfg.nominal_clock * freq_mult);
}

} // namespace csprint
