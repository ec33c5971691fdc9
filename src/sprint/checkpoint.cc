#include "sprint/checkpoint.hh"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>

#include <dirent.h>
#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include "archsim/machine.hh"
#include "archsim/opstream.hh"
#include "workloads/workload.hh"

namespace csprint {

namespace {

[[noreturn]] void
corrupt(const std::string &what)
{
    throw CheckpointError(CheckpointError::Kind::Corrupt, what);
}

[[noreturn]] void
unsupported(const std::string &what)
{
    throw CheckpointError(CheckpointError::Kind::Unsupported, what);
}

[[noreturn]] void
invariant(const std::string &what)
{
    throw CheckpointError(CheckpointError::Kind::Invariant, what);
}

} // namespace

/**
 * The single friend of every serializable type: one static transfer
 * function per record, run by BlobWriter to dump private state and by
 * BlobReader to overwrite it field for field (see common/blob.hh).
 * Reads operate on objects already constructed from the
 * ScenarioConfig, so the blob holds no value the config fixes: array
 * sizes (threads, cores, caches, directory, memory channels), the
 * trace channels and their capacity come from the rebuilt objects.
 * Reads validate every index, mask and cursor that could otherwise
 * be walked into undefined behaviour; those checks sit under
 * `if constexpr (Ar::kReading)` and cost a save nothing.
 */
struct CheckpointIO
{
    // ----- common/ ---------------------------------------------------

    template <typename Ar>
    static void
    transfer(Ar &a, Io<Ar, Rng> rng)
    {
        for (auto &word : rng.s)
            a.u64(word);
    }

    /**
     * Reading rejects a tracked quantile other than the one @p q was
     * constructed with: every owner builds its estimators with a fixed
     * quantile, and value() converts q * n to an integer rank.
     */
    template <typename Ar>
    static void
    transfer(Ar &a, Io<Ar, P2Quantile> q)
    {
        double quantile = q.q_;
        a.f64(quantile);
        if constexpr (Ar::kReading) {
            if (quantile != q.q_)
                corrupt("quantile estimator tracks q = " +
                        std::to_string(quantile) + ", expected " +
                        std::to_string(q.q_));
        }
        a.u64(q.n);
        for (auto &v : q.height)
            a.f64(v);
        for (auto &v : q.pos)
            a.f64(v);
        for (auto &v : q.desired)
            a.f64(v);
        for (auto &v : q.rate)
            a.f64(v);
    }

    /** Reading rejects sample times that ever decrease (or NaN). */
    template <typename Ar>
    static void
    transfer(Ar &a, Io<Ar, TimeSeries> ts)
    {
        a.vecF64(ts.times);
        a.vecF64(ts.values);
        if constexpr (Ar::kReading) {
            if (ts.times.size() != ts.values.size())
                corrupt("time series with mismatched time/value lengths");
            for (std::size_t i = 0; i < ts.times.size(); ++i)
                if (std::isnan(ts.times[i]) ||
                    (i > 0 && ts.times[i] < ts.times[i - 1]))
                    corrupt("time series sampled out of order");
        }
    }

    /**
     * A trace channel, its capacity taken from the config. A channel
     * that never decimates has stored every sample it was offered, so
     * its samples are its whole state. A ring stores the offered
     * indices {0, stride, 2 stride, ...} (add() keeps next_store_ at
     * stride × size, compaction included), so next_store_ is rebuilt,
     * and the offered count must lie in (next_store_ - stride,
     * next_store_].
     */
    template <typename Ar>
    static void
    transfer(Ar &a, Io<Ar, DecimatingTrace> dt)
    {
        transfer(a, dt.ts);
        if (dt.cap == DecimatingTrace::kUnbounded) {
            if constexpr (Ar::kReading)
                dt.next_store_ = dt.offered_ = dt.ts.size();
            return;
        }
        a.u64(dt.stride_);
        a.u64(dt.offered_);
        if constexpr (Ar::kReading) {
            const std::size_t n = dt.ts.size();
            if (dt.stride_ == 0)
                corrupt("decimating trace with a zero stride");
            if (n > dt.cap)
                corrupt("decimating trace holds more samples than its "
                        "capacity");
            if (n > 0 && dt.stride_ > SIZE_MAX / n)
                corrupt("decimating trace stride overflows its index");
            dt.next_store_ = dt.stride_ * n;
            if (dt.offered_ > dt.next_store_ ||
                dt.next_store_ - dt.offered_ >= dt.stride_)
                corrupt("decimating trace's offered count is off its "
                        "stride grid");
        }
    }

    template <typename Ar>
    static void
    transfer(Ar &a, Io<Ar, MeltCycleCounter> mc)
    {
        a.boolean(mc.molten_);
        a.narrowInt(mc.cycles_, "melt cycle count");
    }

    /**
     * The channels cfg.trace_mode records: none under Off. Reading
     * rejects a channel that ends past the clock @p now by more than
     * rounding, as TimeSeries::add would abort on the engine's next
     * sample: a pump slice's times are a running sum from the clock,
     * each sum rounding by at most an ulp of @p now, so one ulp per
     * offered sample, plus 16 for the clock's own sums.
     */
    template <typename Ar>
    static void
    transfer(Ar &a, const ScenarioConfig &cfg, Seconds now,
             Io<Ar, ScenarioTraceSink> sink)
    {
        if constexpr (Ar::kReading)
            sink.configure(cfg.trace_mode, cfg.trace_capacity);
        for (auto &channel : sink.channels_) {
            transfer(a, channel);
            if constexpr (Ar::kReading) {
                const TimeSeries &ts = channel.series();
                const double ulps =
                    static_cast<double>(channel.offered()) + 16.0;
                if (!ts.empty() &&
                    !(ts.timeAt(ts.size() - 1) - now <=
                      ulps * (std::nextafter(now, INFINITY) - now)))
                    corrupt("trace sample time past the checkpoint's "
                            "clock");
            }
        }
    }

    // ----- thermal / arrivals ---------------------------------------

    /** A package snapshot, at the configured package's node count. */
    template <typename Ar>
    static void
    transfer(Ar &a, Io<Ar, ThermalNetworkState> st)
    {
        for (auto *nodes : {&st.temps, &st.melt_fractions, &st.injected})
            for (auto &v : *nodes)
                a.f64(v);
    }

    template <typename Ar>
    static void
    transfer(Ar &a, Io<Ar, ArrivalCursor> cur)
    {
        transfer(a, cur.rng);
        a.f64(cur.poisson_clock);
        a.u64(cur.index);
    }

    // ----- surrogate fidelity tier ----------------------------------

    template <typename Ar>
    static void
    transfer(Ar &a, Io<Ar, SurrogateClassModel> m)
    {
        a.u64(m.n);
        a.f64(m.ewma_service);
        a.f64(m.ewma_energy);
        a.f64(m.ewma_sprint_time);
        a.f64(m.ewma_sprint_energy);
        a.f64(m.ewma_heat_time);
        a.f64(m.ewma_heat_energy);
        a.f64(m.exhausted_ewma);
        a.f64(m.throttled_ewma);
        a.u64(m.surrogate_runs);
        a.u64(m.audits);
        a.boolean(m.demoted);
        a.f64(m.worst_audit_error);
    }

    template <typename Ar>
    static void
    transfer(Ar &a, Io<Ar, TaskSurrogate> s)
    {
        transfer(a, s.audit_rng_);
        a.u64(s.surrogate_tasks_);
        a.u64(s.audit_tasks_);
        a.narrowInt(s.demotions_, "surrogate demotion count");
        std::uint64_t n = s.classes_.size();
        a.u64(n);
        if constexpr (Ar::kReading) {
            s.classes_.clear();
            for (std::uint64_t i = 0; i < n; ++i) {
                std::uint32_t key = 0;
                a.u32(key);
                // classKey packs (kernel << 8) | (size << 1) | sprinted.
                if ((key >> 8) > static_cast<std::uint32_t>(
                                     KernelId::Segment) ||
                    ((key >> 1) & 0x7fu) >
                        static_cast<std::uint32_t>(InputSize::D))
                    corrupt("surrogate class key out of range");
                if (s.classes_.count(key))
                    corrupt("duplicate surrogate class key");
                transfer(a, s.classes_[key]);
            }
        } else {
            for (const auto &entry : s.classes_) {
                a.u32(entry.first);
                transfer(a, entry.second);
            }
        }
    }

    // ----- caches / memory / energy ---------------------------------

    template <typename Ar>
    static void
    transfer(Ar &a, Io<Ar, CacheStats> st)
    {
        a.u64(st.hits);
        a.u64(st.misses);
        a.u64(st.evictions);
        a.u64(st.dirty_evictions);
        a.u64(st.invalidations);
    }

    /** A cache's contents, at the geometry of the configured cache. */
    template <typename Ar>
    static void
    transfer(Ar &a, Io<Ar, Cache> c)
    {
        for (auto &tag : c.tags)
            a.u64(tag);
        const std::uint16_t way_mask = static_cast<std::uint16_t>(
            c.ways >= 16 ? 0xFFFFu : ((1u << c.ways) - 1u));
        for (std::size_t s = 0; s < c.meta.size(); ++s) {
            auto &m = c.meta[s];
            a.u64(m.order);
            a.u16(m.valid);
            a.u16(m.dirty);
            if constexpr (Ar::kReading) {
                m.probe_way = 0;
                if ((m.valid & ~way_mask) != 0 || (m.dirty & ~m.valid) != 0)
                    corrupt("cache set " + std::to_string(s) +
                            " has invalid way masks");
                // The recency word must hold each way id exactly once
                // (touch() relies on it to terminate its nibble scan).
                unsigned seen = 0;
                for (int p = 0; p < 16; ++p)
                    seen |= 1u << ((m.order >> (4 * p)) & 0xF);
                if (seen != 0xFFFFu)
                    corrupt("cache set " + std::to_string(s) +
                            " has a non-permutation recency word");
            }
        }
        transfer(a, c.counters);
    }

    /** A core set's members; its capacity is the configured one. */
    template <typename Ar>
    static void
    transfer(Ar &a, Io<Ar, CoreSet> s)
    {
        const std::int64_t cap = s.capacity();
        std::int64_t n = s.count();
        a.i64(n);
        if constexpr (Ar::kReading) {
            if (n < 0 || n > cap)
                corrupt("core-set member count out of range");
            s.clear();
            std::int64_t prev = -1;
            for (std::int64_t i = 0; i < n; ++i) {
                std::int64_t c = 0;
                a.i64(c);
                if (c <= prev || c >= cap)
                    corrupt("core-set members not strictly ascending in "
                            "range");
                s.add(static_cast<int>(c));
                prev = c;
            }
        } else {
            s.forEach([&a](int c) { a.i64(c); });
        }
    }

    template <typename Ar>
    static void
    transfer(Ar &a, Io<Ar, L2Stats> st)
    {
        a.u64(st.hits);
        a.u64(st.misses);
        a.u64(st.invalidations_sent);
        a.u64(st.downgrades_sent);
        a.u64(st.inclusion_recalls);
        a.u64(st.writebacks_received);
        a.u64(st.directory_spills);
    }

    template <typename Ar>
    static void
    transfer(Ar &a, Io<Ar, SharedL2> l2)
    {
        transfer(a, l2.tags);
        for (auto &e : l2.dir) {
            for (auto &p : e.ptr)
                a.i16(p);
            a.i16(e.dirty_owner);
            a.u8(e.nptr);
            a.boolean(e.overflow);
            a.boolean(e.l2_dirty);
            a.u32(e.ovf);
            if constexpr (Ar::kReading) {
                if (e.nptr > SharedL2::kInlineSharers)
                    corrupt("directory entry with too many inline "
                            "sharers");
                if (e.dirty_owner < -1 || e.dirty_owner >= l2.num_cores)
                    corrupt("directory dirty owner out of range");
                if (!e.overflow) {
                    for (int i = 0; i < e.nptr; ++i) {
                        if (e.ptr[i] < 0 || e.ptr[i] >= l2.num_cores)
                            corrupt("inline sharer id out of range");
                    }
                }
            }
        }
        a.vecU64(l2.pool);
        const std::size_t wpb = l2.words_per_block;
        const std::size_t blocks = wpb ? l2.pool.size() / wpb : 0;
        if constexpr (Ar::kReading) {
            if (wpb == 0 ? !l2.pool.empty() : l2.pool.size() % wpb != 0)
                corrupt("overflow pool size not a whole number of blocks");
            for (const SharedL2::DirEntry &e : l2.dir) {
                if (!e.overflow)
                    continue;
                if (e.ovf >= blocks)
                    corrupt("overflow block index out of range");
                // Stray sharer bits at or beyond the core count would
                // index past the L1 array during coherence actions.
                const std::uint64_t *words =
                    &l2.pool[static_cast<std::size_t>(e.ovf) * wpb];
                for (std::size_t wd = 0; wd < wpb; ++wd) {
                    const std::size_t base = wd * 64;
                    std::uint64_t mask = 0;
                    if (static_cast<std::size_t>(l2.num_cores) >= base + 64)
                        mask = ~std::uint64_t(0);
                    else if (static_cast<std::size_t>(l2.num_cores) > base)
                        mask = (std::uint64_t(1)
                                << (l2.num_cores - base)) -
                               1;
                    if ((words[wd] & ~mask) != 0)
                        corrupt("overflow sharer bit beyond the core "
                                "count");
                }
            }
        }
        a.vec(l2.pool_free, 4, [](Ar &a2, auto &b) { a2.u32(b); });
        if constexpr (Ar::kReading) {
            for (std::uint32_t b : l2.pool_free) {
                if (b >= blocks)
                    corrupt("recycled overflow block index out of range");
            }
        }
        transfer(a, l2.l1_mutations);
        transfer(a, l2.counters);
    }

    template <typename Ar>
    static void
    transfer(Ar &a, Io<Ar, MemorySystem> mem)
    {
        a.f64(mem.mult);
        if constexpr (Ar::kReading) {
            if (!(mem.mult > 0.0) || !std::isfinite(mem.mult))
                corrupt("memory frequency multiplier not positive");
        }
        for (auto &t : mem.next_free)
            a.f64(t);
        a.u64(mem.counters.reads);
        a.u64(mem.counters.writebacks);
        a.u64(mem.counters.queued_cycles);
    }

    template <typename Ar>
    static void
    transfer(Ar &a, Io<Ar, InstructionEnergyModel> em)
    {
        a.narrowInt(em.params.node_nm, "energy model node");
        a.f64(em.params.vdd);
        a.f64(em.params.clock);
        a.f64(em.params.cap_scale);
        for (auto &e : em.op_energy)
            a.f64(e);
        a.f64(em.l2_energy);
        a.f64(em.dram_energy);
        a.f64(em.idle_energy);
        a.f64(em.nominal_cycle);
    }

    // ----- machine ---------------------------------------------------

    template <typename Ar>
    static void
    transfer(Ar &a, Io<Ar, MachineStats> st)
    {
        a.u64(st.cycles);
        a.f64(st.seconds);
        a.u64(st.ops_retired);
        for (auto &n : st.ops_by_kind)
            a.u64(n);
        a.u64(st.l1_hits);
        a.u64(st.l1_misses);
        a.u64(st.idle_cycles);
        a.u64(st.sleep_cycles);
        a.u64(st.barrier_arrivals);
        a.f64(st.dynamic_energy);
    }

    /**
     * A thread's op stream: a type tag and a cursor. Writing accepts
     * only the two built-in stream types. Reading rebuilds task
     * @p task's stream from @p phase's factory and checks the tag
     * against its type.
     */
    template <typename Ar>
    static void
    transfer(Ar &a, Io<Ar, std::unique_ptr<OpStream>> s,
             const Phase *phase, std::size_t task)
    {
        if constexpr (Ar::kReading) {
            if (phase->make_task == nullptr || task >= phase->num_tasks)
                corrupt("stream task index out of range for the phase");
            s = phase->make_task(task);
        }
        auto *v = dynamic_cast<VectorOpStream *>(s.get());
        auto *c = dynamic_cast<ChunkedOpStream *>(s.get());
        std::uint8_t type = v ? 0 : 1;
        if constexpr (!Ar::kReading) {
            if (!v && !c)
                unsupported("custom OpStream type cannot be checkpointed");
        }
        a.u8(type);
        if constexpr (Ar::kReading) {
            if (type > 1)
                corrupt("unknown op-stream type tag");
            if (type == 0 && !v)
                corrupt("blob says vector stream; factory built "
                        "another type");
            if (type == 1 && !c)
                corrupt("blob says chunked stream; factory built "
                        "another type");
        }
        if (type == 0) {
            std::size_t pos = v->pos;
            a.u64(pos);
            if constexpr (Ar::kReading) {
                if (pos > v->ops.size())
                    corrupt("vector stream cursor past the end");
                v->pos = pos;
            }
            return;
        }
        std::size_t next = c->next_chunk;
        a.u64(next);
        if constexpr (Ar::kReading) {
            if (next > c->num_chunks)
                corrupt("chunked stream cursor past the last chunk");
            // Replay the consumed chunks in order so stateful
            // generator closures reach the state they held at the
            // snapshot; the machine's pending ops live in the
            // thread's buffered window, not here.
            std::vector<MicroOp> scratch;
            for (std::size_t i = 0; i < next; ++i)
                c->fn(i, scratch);
            c->next_chunk = next;
        }
    }

    static void
    requireSuspendedBoundary(const Machine &m)
    {
        if (!m.was_suspended || m.aborted)
            unsupported("machine must be suspended at a sample "
                        "boundary to serialize");
        bool clear = m.tally.idle_ticks == 0 &&
                     m.tally.l2_accesses == 0 &&
                     m.tally.dram_accesses == 0;
        for (std::uint64_t v : m.tally.ops)
            clear = clear && v == 0;
        if (!clear)
            unsupported("machine holds unpriced energy tallies");
    }

    /**
     * A machine suspended at a priced sample boundary. Reading
     * overwrites a machine built by prepareMachine() for @p program
     * (unused when writing), then resets the derived state.
     */
    template <typename Ar>
    static void
    transfer(Ar &a, Io<Ar, Machine> m, const ParallelProgram *program)
    {
        if constexpr (!Ar::kReading)
            requireSuspendedBoundary(m);
        a.u64(m.cycle);
        a.f64(m.freq_mult);
        if constexpr (Ar::kReading) {
            if (!(m.freq_mult > 0.0) || !std::isfinite(m.freq_mult))
                corrupt("machine frequency multiplier not positive");
        }
        a.f64(m.time_base);
        a.u64(m.cycle_base);
        a.u64(m.phase_idx);
        if constexpr (Ar::kReading) {
            if (m.phase_idx > program->phases().size())
                corrupt("phase index out of range");
        }
        a.u64(m.serial_next_task);
        a.u64(m.dynamic_next_task);
        a.u64(m.dequeue_free_at);
        a.u64(m.barrier_count);
        a.narrowInt(m.active_cores, "active core count");
        if constexpr (Ar::kReading) {
            if (m.active_cores < 0 ||
                m.active_cores > static_cast<int>(m.cores.size()))
                corrupt("active core count out of range");
        }
        transfer(a, m.cfg.energy);
        transfer(a, m.totals);
        const int nthreads = static_cast<int>(m.threads.size());
        a.vec(m.locks, 8, [nthreads](Ar &a2, auto &l) {
            a2.narrowInt(l.holder, "lock holder");
            if constexpr (Ar::kReading) {
                if (l.holder < -1 || l.holder >= nthreads)
                    corrupt("lock holder out of range");
            }
        });
        for (auto &t : m.threads) {
            // A thread parked at a barrier may still hold the stream
            // of its last task; enterPhase resets it before it is
            // ever read again, so canonicalize it away.
            bool has_stream = t.stream != nullptr && !t.at_barrier;
            a.boolean(has_stream);
            if (has_stream) {
                a.u64(t.current_task);
                const Phase *phase = nullptr;
                if constexpr (Ar::kReading) {
                    if (m.phase_idx >= program->phases().size())
                        corrupt("live stream in a finished machine");
                    phase = &program->phases()[m.phase_idx];
                }
                transfer(a, t.stream, phase, t.current_task);
            } else if constexpr (Ar::kReading) {
                t.stream.reset();
                t.current_task = 0;
            }
            a.boolean(t.at_barrier);
            a.u64(t.sleep_until);
            a.narrowInt(t.spin_failures, "thread spin failures");
            a.u64(t.next_task);
            a.u64(t.task_end);
            // Only the pending window of the bulk op buffer matters.
            std::size_t n = t.buf_len - t.buf_pos;
            a.u64(n);
            if constexpr (Ar::kReading) {
                // The window can exceed kOpBufferCap: a chunked
                // stream's fillInto generates whole chunks into the
                // thread buffer. Bound it by the bytes actually
                // present (8 per op).
                if (n > a.remaining() / 8)
                    corrupt("op window larger than the remaining bytes");
                if (t.buf.size() < n)
                    t.buf.resize(n);
                t.buf_pos = 0;
                t.buf_len = n;
            }
            for (std::size_t i = t.buf_pos; i < t.buf_len; ++i)
                a.u64(t.buf[i].bits);
        }
        for (auto &c : m.cores) {
            a.boolean(c.active);
            a.vec(c.run_queue, 8, [nthreads](Ar &a2, auto &v) {
                a2.u64(v);
                if constexpr (Ar::kReading) {
                    if (v >= static_cast<std::size_t>(nthreads))
                        corrupt("run-queue thread id out of range");
                }
            });
            a.u64(c.rr);
            if constexpr (Ar::kReading) {
                if (!c.run_queue.empty() && c.rr >= c.run_queue.size())
                    corrupt("round-robin cursor out of range");
            }
            a.narrowInt(c.current, "current thread id");
            if constexpr (Ar::kReading) {
                if (c.current < -1 || c.current >= nthreads)
                    corrupt("current thread id out of range");
            }
            a.u64(c.busy_until);
            a.u64(c.quantum_end);
            a.boolean(c.idle_repeat);
            a.u64(c.idle_from);
        }
        for (auto &ev : m.next_event)
            a.u64(ev);
        for (auto &c : m.l1s)
            transfer(a, c);
        transfer(a, *m.l2);
        transfer(a, *m.memory);

        if constexpr (Ar::kReading) {
            // Derived and transient state: stride probes are pure
            // lookahead (outcome-invariant), so they restart cold; the
            // scan cache re-derives from next_event with probes zeroed.
            for (std::size_t c = 0; c < m.cores.size(); ++c) {
                m.resetProbe(m.cores[c]);
                m.refreshScanCache(c);
            }
            m.events_dirty = false;
            m.aborted = false;
            m.suspend_pending = false;
            m.was_suspended = true;
            m.tally = Machine::EnergyTally();
            m.energy_at_last_sample = m.totals.dynamic_energy;
        }
    }

    // ----- warm re-activation husk ----------------------------------

    /**
     * The warm machine only ever feeds warmStartFrom(), which reads
     * the cache geometry, L1/L2/directory contents, the memory
     * channel residuals, and the cycle count — so the husk record
     * skips thread/core scheduler state entirely, and reading rebuilds
     * the machine against an empty program.
     */
    template <typename Ar>
    static void
    transferWarmHusk(Ar &a, const ScenarioConfig &cfg,
                     Io<Ar, ScenarioCheckpoint> ck)
    {
        bool granted = false;
        if constexpr (!Ar::kReading)
            granted = ck.warm_machine->cfg.num_cores ==
                      cfg.platform.machineConfig().num_cores;
        a.boolean(granted);
        if constexpr (Ar::kReading) {
            const SprintConfig run_cfg =
                granted ? cfg.platform : consolidatedPlatform(cfg.platform);
            ck.warm_program =
                std::make_unique<ParallelProgram>("warm-husk");
            ck.warm_machine = prepareMachine(*ck.warm_program, run_cfg);
        }
        Io<Ar, Machine> m = *ck.warm_machine;
        a.u64(m.cycle);
        for (auto &c : m.l1s)
            transfer(a, c);
        transfer(a, *m.l2);
        transfer(a, *m.memory);
    }

    // ----- scenario value records -----------------------------------

    template <typename Ar>
    static void
    transfer(Ar &a, Io<Ar, ScenarioTask> t)
    {
        a.f64(t.arrival);
        a.template enumAs<std::uint8_t>(t.kernel, KernelId::Segment,
                                        "kernel id");
        a.template enumAs<std::uint8_t>(t.size, InputSize::D,
                                        "input size");
        a.u64(t.seed);
        a.narrowInt(t.priority, "task priority");
        a.f64(t.deadline);
    }

    template <typename Ar>
    static void
    transfer(Ar &a, Io<Ar, RunResult> rr)
    {
        a.str(rr.program_name);
        a.narrowInt(rr.sprint_cores, "run sprint cores");
        a.narrowInt(rr.num_threads, "run thread count");
        a.f64(rr.dvfs_boost);
        a.f64(rr.task_time);
        a.f64(rr.dynamic_energy);
        a.f64(rr.peak_junction);
        a.f64(rr.final_melt_fraction);
        a.boolean(rr.sprint_exhausted);
        a.boolean(rr.hardware_throttled);
        a.f64(rr.sprint_duration);
        a.f64(rr.sprint_energy);
        a.f64(rr.cooldown_estimate);
        a.f64(rr.avg_power);
        a.f64(rr.sampled_time);
        a.f64(rr.sampled_energy);
        transfer(a, rr.machine);
    }

    template <typename Ar>
    static void
    transfer(Ar &a, Io<Ar, ScenarioTaskResult> t)
    {
        a.f64(t.arrival);
        a.f64(t.start);
        a.f64(t.finish);
        a.f64(t.response);
        a.boolean(t.sprint_granted);
        a.f64(t.melt_at_start);
        a.f64(t.melt_at_end);
        a.narrowInt(t.priority, "task priority");
        a.f64(t.deadline);
        a.boolean(t.deadline_met);
        a.narrowInt(t.preemptions, "task preemptions");
        transfer(a, t.run);
    }

    template <typename Ar>
    static void
    transfer(Ar &a, Io<Ar, PumpState> p)
    {
        a.f64(p.elapsed);
        a.f64(p.ramp_time);
        a.f64(p.above_tdp_time);
        a.f64(p.above_tdp_energy);
        a.f64(p.sampled_time);
        a.f64(p.sampled_energy);
        a.f64(p.peak_junction);
        a.boolean(p.sprint_exhausted);
        a.boolean(p.hardware_throttled);
        a.boolean(p.policy_throttled);
    }

    template <typename Ar>
    static void
    transfer(Ar &a, const ScenarioConfig &cfg,
             Io<Ar, ScenarioTaskExecution> ex)
    {
        transfer(a, ex.task);
        a.boolean(ex.started);
        a.boolean(ex.sprint_granted);
        a.narrowInt(ex.preemptions, "execution preemptions");
        a.f64(ex.first_start);
        a.f64(ex.melt_at_start);
        transfer(a, ex.pump);
        bool has_machine = ex.machine != nullptr;
        a.boolean(has_machine);
        if (!has_machine)
            return;
        if constexpr (Ar::kReading) {
            // A suspended execution rebuilds its program and machine
            // the way the engine's dispatch path builds them, then
            // overwrites the machine's architectural state from the
            // blob.
            ex.run_cfg = ex.sprint_granted
                             ? cfg.platform
                             : consolidatedPlatform(cfg.platform);
            ex.program = std::make_unique<ParallelProgram>(
                buildTaskProgram(cfg, ex.task));
            ex.machine = prepareMachine(*ex.program, ex.run_cfg);
        }
        transfer(a, *ex.machine, ex.program.get());
    }

    /** The whole checkpoint payload, in wire order. */
    template <typename Ar>
    static void
    transfer(Ar &a, const ScenarioConfig &cfg,
             Io<Ar, ScenarioCheckpoint> ck)
    {
        a.boolean(ck.done);
        transfer(a, ck.arrivals);
        if constexpr (Ar::kReading)
            ck.thermal =
                MobilePackageModel(cfg.platform.package).saveState();
        transfer(a, ck.thermal);
        a.vecF64(ck.policy_state);
        if constexpr (Ar::kReading) {
            // advanceScenario hands a non-empty state to the configured
            // policy's restoreState, which asserts its length.
            if (!ck.policy_state.empty()) {
                const std::unique_ptr<SprintPolicy> policy =
                    cfg.policy_factory ? cfg.policy_factory()
                                       : makeSprintPolicy(cfg.policy);
                if (ck.policy_state.size() != policy->saveState().size())
                    corrupt("policy state length does not match the "
                            "configured policy");
            }
        }
        a.f64(ck.now);
        a.f64(ck.busy);
        TaskTallies<int>::transfer(a, ck);
        a.f64(ck.peak_melt);
        transfer(a, ck.p50);
        transfer(a, ck.p95);
        transfer(a, ck.melt_cycles);
        transfer(a, cfg, ck.now, ck.traces);
        transfer(a, ck.surrogate);
        a.vec(ck.tasks, 1, [](Ar &a2, auto &t) { transfer(a2, t); });
        a.boolean(ck.have_peek);
        if (ck.have_peek)
            transfer(a, ck.peek);
        std::size_t nready = ck.ready.size();
        a.sz(nready);
        if constexpr (Ar::kReading)
            ck.ready.reserve(nready);
        for (std::size_t i = 0; i < nready; ++i) {
            if constexpr (Ar::kReading)
                ck.ready.push_back(
                    std::make_unique<ScenarioTaskExecution>());
            if (ck.ready[i] == nullptr)
                unsupported("null execution in the ready queue");
            transfer(a, cfg, *ck.ready[i]);
        }
        bool has_warm = ck.warm_machine != nullptr;
        a.boolean(has_warm);
        if (has_warm)
            transferWarmHusk(a, cfg, ck);
    }

    // ----- paranoia validation --------------------------------------

    static void
    validateMachineCoherence(const Machine &m, const std::string &who)
    {
        const SharedL2 &l2 = *m.l2;
        const Cache &tags = l2.tags;
        for (std::size_t slot = 0; slot < tags.numSlots(); ++slot) {
            if (!tags.validAt(slot))
                continue;
            const std::uint64_t line = tags.lineAt(slot);
            const SharedL2::DirEntry &e = l2.dir[slot];
            // Sharer bits are a conservative superset (clean L1
            // evictions are silent), so only their range is checked;
            // the dirty owner is kept precise by writebackFromL1 and
            // the downgrade path, so it must really hold the line
            // dirty.
            l2.forEachSharer(e, [&](int c) {
                if (c < 0 || c >= static_cast<int>(m.l1s.size()))
                    invariant(who + ": directory sharer id " +
                              std::to_string(c) + " out of range");
            });
            if (e.dirty_owner >= 0) {
                if (!l2.hasSharer(e, e.dirty_owner))
                    invariant(who + ": dirty owner " +
                              std::to_string(e.dirty_owner) +
                              " of line " + std::to_string(line) +
                              " is not a sharer");
                if (!m.l1s[static_cast<std::size_t>(e.dirty_owner)]
                         .isDirty(line))
                    invariant(who + ": dirty owner " +
                              std::to_string(e.dirty_owner) +
                              "'s L1 copy of line " +
                              std::to_string(line) + " is not dirty");
            }
        }
        for (std::size_t c = 0; c < m.l1s.size(); ++c) {
            const Cache &l1 = m.l1s[c];
            for (std::size_t slot = 0; slot < l1.numSlots(); ++slot) {
                if (!l1.validAt(slot))
                    continue;
                const std::uint64_t line = l1.lineAt(slot);
                const std::size_t l2slot = tags.findSlot(line);
                if (l2slot == Cache::kNoSlot)
                    invariant(who + ": core " + std::to_string(c) +
                              " holds line " + std::to_string(line) +
                              " absent from the L2 (inclusion "
                              "violated)");
                if (!l2.hasSharer(l2.dir[l2slot],
                                  static_cast<int>(c)))
                    invariant(who + ": core " + std::to_string(c) +
                              " holds line " + std::to_string(line) +
                              " but the directory does not list it as "
                              "a sharer");
            }
        }
    }

    static void
    validate(const ScenarioConfig &cfg, const ScenarioCheckpoint &ck)
    {
        const MobilePackageParams &pkg = cfg.platform.package;
        const double t_lo = pkg.ambient - 1.0;
        const double t_hi = pkg.t_junction_max + 50.0;
        for (std::size_t i = 0; i < ck.thermal.temps.size(); ++i) {
            const double t = ck.thermal.temps[i];
            if (!std::isfinite(t) || t < t_lo || t > t_hi)
                invariant("thermal node " + std::to_string(i) +
                          " temperature " + std::to_string(t) +
                          " outside [" + std::to_string(t_lo) + ", " +
                          std::to_string(t_hi) + "]");
        }
        for (std::size_t i = 0; i < ck.thermal.melt_fractions.size();
             ++i) {
            const double f = ck.thermal.melt_fractions[i];
            if (!std::isfinite(f) || f < 0.0 || f > 1.0)
                invariant("thermal node " + std::to_string(i) +
                          " melt fraction " + std::to_string(f) +
                          " outside [0, 1]");
        }
        for (std::size_t i = 0; i < ck.thermal.injected.size(); ++i) {
            if (!std::isfinite(ck.thermal.injected[i]))
                invariant("thermal node " + std::to_string(i) +
                          " injected power is not finite");
        }
        if (!std::isfinite(ck.now) || ck.now < 0.0)
            invariant("timeline clock " + std::to_string(ck.now) +
                      " is negative or non-finite");
        const double time_eps = 1e-9 * (1.0 + ck.now);
        if (!std::isfinite(ck.busy) || ck.busy < 0.0 ||
            ck.busy > ck.now + time_eps)
            invariant("busy time " + std::to_string(ck.busy) +
                      " exceeds the timeline clock " +
                      std::to_string(ck.now));
        if (!std::isfinite(ck.total_energy) || ck.total_energy < 0.0)
            invariant("total energy " +
                      std::to_string(ck.total_energy) +
                      " is negative or non-finite");
        const double energy_eps = 1e-9 * (1.0 + ck.total_energy);
        if (!std::isfinite(ck.total_sprint_energy) ||
            ck.total_sprint_energy < 0.0 ||
            ck.total_sprint_energy > ck.total_energy + energy_eps)
            invariant("sprint energy " +
                      std::to_string(ck.total_sprint_energy) +
                      " exceeds total energy " +
                      std::to_string(ck.total_energy));
        if (!std::isfinite(ck.total_sprint_time) ||
            ck.total_sprint_time < 0.0 ||
            ck.total_sprint_time > ck.now + time_eps)
            invariant("sprint time " +
                      std::to_string(ck.total_sprint_time) +
                      " exceeds the timeline clock");
        if (!std::isfinite(ck.peak_melt) || ck.peak_melt < 0.0 ||
            ck.peak_melt > 1.0)
            invariant("peak melt fraction " +
                      std::to_string(ck.peak_melt) +
                      " outside [0, 1]");
        if (!std::isfinite(ck.peak_junction) ||
            (ck.peak_junction != 0.0 && ck.peak_junction > t_hi))
            invariant("peak junction temperature " +
                      std::to_string(ck.peak_junction) +
                      " outside physical bounds");
        if (ck.sprints_granted < 0 || ck.sprints_denied < 0 ||
            ck.sprints_exhausted < 0 || ck.hardware_throttles < 0 ||
            ck.preemptions < 0 || ck.tasks_dropped < 0 ||
            ck.deadlines_met < 0 || ck.deadlines_missed < 0)
            invariant("negative event counter in the checkpoint");
        if (cfg.keep_task_results &&
            ck.tasks.size() >
                ck.tasks_completed +
                    static_cast<std::uint64_t>(ck.tasks_dropped))
            invariant("retained task results (" +
                      std::to_string(ck.tasks.size()) +
                      ") exceed tasks completed plus dropped");
        for (std::size_t i = 0; i < ck.ready.size(); ++i) {
            const ScenarioTaskExecution *ex = ck.ready[i].get();
            if (ex == nullptr)
                invariant("null execution in the ready queue");
            if (ex->machine)
                validateMachineCoherence(
                    *ex->machine, "ready[" + std::to_string(i) + "]");
        }
        if (ck.warm_machine)
            validateMachineCoherence(*ck.warm_machine, "warm machine");
    }

    // ----- config digest --------------------------------------------

    static void
    digestGovernor(BlobWriter &d, const GovernorConfig &g)
    {
        d.f64(g.margin);
        d.boolean(g.use_activity_estimate);
        d.f64(g.temp_guard);
        d.f64(g.software_grace);
    }

    static void
    digestPlatform(BlobWriter &d, const SprintConfig &p)
    {
        d.i64(p.sprint_cores);
        d.i64(p.num_threads);
        d.f64(p.dvfs_boost);
        d.f64(p.activation_ramp);
        const MobilePackageParams &pk = p.package;
        d.f64(pk.ambient);
        d.f64(pk.t_junction_max);
        d.f64(pk.c_junction);
        d.f64(pk.pcm_mass);
        d.f64(pk.pcm_latent_per_gram);
        d.f64(pk.pcm_sensible_per_gram);
        d.f64(pk.pcm_melt_temp);
        d.f64(pk.r_junction_to_pcm);
        d.f64(pk.r_pcm_to_case);
        d.f64(pk.r_case_to_ambient);
        d.f64(pk.c_case);
        digestGovernor(d, p.governor);
        d.boolean(p.software_migration_fails);
        const MachineConfig &m = p.machine;
        d.i64(m.num_cores);
        d.i64(m.num_threads);
        d.f64(m.nominal_clock);
        d.f64(m.freq_mult);
        d.sz(m.l1_bytes);
        d.i64(m.l1_assoc);
        d.sz(m.line_bytes);
        d.sz(m.l2.size_bytes);
        d.i64(m.l2.assoc);
        d.sz(m.l2.line_bytes);
        d.u64(m.l2.hit_latency);
        d.u64(m.l2.coherence_penalty);
        d.i64(static_cast<int>(m.l2.directory));
        d.i64(m.memory.channels);
        d.f64(m.memory.channel_bytes_per_sec);
        d.f64(m.memory.round_trip);
        d.sz(m.memory.line_bytes);
        d.u64(m.pause_sleep_cycles);
        d.u64(m.context_switch_cycles);
        d.u64(m.thread_quantum);
        d.u64(m.task_dequeue_cycles);
        d.u64(m.migration_cycles);
        d.i64(m.spin_tries_before_pause);
        d.i64(static_cast<int>(m.loop));
        const TechParams &tech = m.energy.tech();
        d.i64(tech.node_nm);
        d.f64(tech.vdd);
        d.f64(tech.clock);
        d.f64(tech.cap_scale);
    }

    static std::uint32_t
    digest(const ScenarioConfig &cfg)
    {
        BlobWriter d;
        digestPlatform(d, cfg.platform);
        d.i64(static_cast<int>(cfg.policy.kind));
        digestGovernor(d, cfg.policy.governor);
        d.f64(cfg.policy.pacing_period);
        d.f64(cfg.policy.qos_slack);
        d.f64(cfg.policy.service_prior);
        d.i64(static_cast<int>(cfg.pattern));
        d.i64(cfg.num_tasks);
        d.f64(cfg.period);
        d.i64(cfg.burst_size);
        d.f64(cfg.burst_spacing);
        d.i64(static_cast<int>(cfg.kernel));
        d.i64(static_cast<int>(cfg.size));
        d.u64(cfg.seed);
        // Callbacks contribute presence only: the engine requires
        // them to be pure functions of their inputs.
        d.boolean(cfg.program_factory != nullptr);
        d.boolean(cfg.task_tuner != nullptr);
        d.boolean(cfg.policy_factory != nullptr);
        d.boolean(cfg.warm_caches);
        d.f64(cfg.hi_priority_fraction);
        d.f64(cfg.deadline_hi);
        d.f64(cfg.deadline_lo);
        d.f64(cfg.tail_rest);
        d.i64(static_cast<int>(cfg.trace_mode));
        d.sz(cfg.trace_capacity);
        d.boolean(cfg.keep_task_results);
        d.i64(static_cast<int>(cfg.idle_model));
        d.i64(static_cast<int>(cfg.surrogate.tier));
        d.i64(cfg.surrogate.min_calibration);
        d.f64(cfg.surrogate.audit_period);
        d.f64(cfg.surrogate.tolerance);
        d.i64(cfg.surrogate.profile_samples);
        return crc32(d.buffer().data(), d.size());
    }
};

std::uint32_t
scenarioConfigDigest(const ScenarioConfig &cfg)
{
    return CheckpointIO::digest(cfg);
}

std::vector<std::uint8_t>
serializeCheckpoint(const ScenarioConfig &cfg,
                    const ScenarioCheckpoint &ck)
{
    BlobWriter w;
    CheckpointIO::transfer(w, cfg, ck);
    return BlobContainer::seal(scenarioConfigDigest(cfg), w.take());
}

ScenarioCheckpoint
deserializeCheckpoint(const ScenarioConfig &cfg,
                      const std::vector<std::uint8_t> &blob)
{
    BlobReader r = BlobContainer::open(blob, scenarioConfigDigest(cfg));
    ScenarioCheckpoint ck;
    CheckpointIO::transfer(r, cfg, ck);
    r.expectEnd();
    return ck;
}

template <typename Ar>
void
transferQuantile(Ar &a, Io<Ar, P2Quantile> q)
{
    CheckpointIO::transfer(a, q);
}

template void transferQuantile<BlobWriter>(BlobWriter &, const P2Quantile &);
template void transferQuantile<BlobReader>(BlobReader &, P2Quantile &);

void
validateCheckpoint(const ScenarioConfig &cfg,
                   const ScenarioCheckpoint &ck)
{
    CheckpointIO::validate(cfg, ck);
}

// ----- CheckpointStore --------------------------------------------------

namespace {

[[noreturn]] void
ioError(const std::string &what)
{
    throw CheckpointError(CheckpointError::Kind::Io, what);
}

/** The sequence number of checkpoint file name @p name (`<seq>.ck`). */
bool
seqOfName(const std::string &name, std::uint64_t &seq)
{
    if (name.size() <= 3)
        return false;
    const std::size_t digits = name.size() - 3;
    if (name.compare(digits, 3, ".ck") != 0)
        return false;
    seq = 0;
    for (std::size_t i = 0; i < digits; ++i) {
        if (name[i] < '0' || name[i] > '9')
            return false;
        seq = seq * 10 + static_cast<std::uint64_t>(name[i] - '0');
    }
    return true;
}

/** The checkpoint files in @p shard_dir as (seq, path), newest first. */
std::vector<std::pair<std::uint64_t, std::string>>
listCheckpoints(const std::string &shard_dir)
{
    std::vector<std::pair<std::uint64_t, std::string>> files;
    DIR *d = ::opendir(shard_dir.c_str());
    if (!d)
        return files;
    while (const dirent *e = ::readdir(d)) {
        std::uint64_t seq = 0;
        if (seqOfName(e->d_name, seq))
            files.emplace_back(seq, shard_dir + "/" + e->d_name);
    }
    ::closedir(d);
    std::sort(files.begin(), files.end(),
              [](const auto &a, const auto &b) { return a.first > b.first; });
    return files;
}

} // namespace

CheckpointStore::CheckpointStore(std::string dir) : dir_(std::move(dir))
{
}

CheckpointStore::~CheckpointStore()
{
    for (const auto &lock : writer_locks_)
        ::close(lock.second); // closing the fd releases the flock
}

std::string
CheckpointStore::shardDir(int shard) const
{
    char name[32];
    std::snprintf(name, sizeof(name), "/shard%04d", shard);
    return dir_ + name;
}

std::string
CheckpointStore::lockPath(int shard) const
{
    return shardDir(shard) + "/lock";
}

std::string
CheckpointStore::checkpointPath(int shard, std::uint64_t seq) const
{
    char name[32];
    std::snprintf(name, sizeof(name), "/%012llu.ck",
                  static_cast<unsigned long long>(seq));
    return shardDir(shard) + name;
}

std::string
CheckpointStore::manifestPath(int shard) const
{
    return shardDir(shard) + "/manifest";
}

void
CheckpointStore::lockShardWriter(int shard)
{
    if (writer_locks_.count(shard))
        return; // already ours until released
    std::error_code ec;
    std::filesystem::create_directories(shardDir(shard), ec);
    if (ec)
        ioError("cannot create checkpoint directory " + shardDir(shard) +
                ": " + ec.message());
    const std::string path = lockPath(shard);
    const int fd = ::open(path.c_str(), O_CREAT | O_RDWR | O_CLOEXEC,
                          0644);
    if (fd < 0)
        ioError("cannot open writer lock " + path + ": " +
                std::strerror(errno));
    if (::flock(fd, LOCK_EX | LOCK_NB) != 0) {
        ::close(fd);
        ioError("another live writer holds shard " +
                std::to_string(shard) + "'s checkpoint lock (" + path +
                "); refusing to publish or prune its files");
    }
    writer_locks_.emplace(shard, fd);
}

void
CheckpointStore::releaseShard(int shard)
{
    const auto it = writer_locks_.find(shard);
    if (it == writer_locks_.end())
        return;
    ::close(it->second);
    writer_locks_.erase(it);
}

void
CheckpointStore::save(int shard, std::uint64_t seq,
                      const std::vector<std::uint8_t> &blob)
{
    // Single-writer enforcement: hold this shard's advisory lock
    // before publishing or pruning anything (see the class comment).
    lockShardWriter(shard);

    // Publish the checkpoint, then the manifest naming it; both via
    // write-temp-then-rename so a crash at any instant leaves either
    // the previous complete state or the new one, never a torn file.
    const std::string path = checkpointPath(shard, seq);
    writeFileAtomic(path, blob.data(), blob.size());
    const std::string manifest_body =
        path.substr(path.find_last_of('/') + 1) + "\n";
    writeFileAtomic(manifestPath(shard), manifest_body.data(),
                    manifest_body.size());

    // Keep the published checkpoint and its predecessor. Anything
    // numbered above seq predates a restart from an earlier state and
    // must go, or it would outrank the file just published.
    bool kept_predecessor = false;
    for (const auto &file : listCheckpoints(shardDir(shard))) {
        if (file.first == seq)
            continue;
        if (file.first < seq && !kept_predecessor) {
            kept_predecessor = true;
            continue;
        }
        ::unlink(file.second.c_str()); // best effort
    }
}

std::vector<CheckpointStore::Candidate>
CheckpointStore::loadCandidates(int shard) const
{
    std::vector<Candidate> out;
    auto addFile = [&](const std::string &path, std::uint64_t seq) {
        for (const Candidate &c : out) {
            if (c.seq == seq)
                return;
        }
        Candidate c;
        c.seq = seq;
        if (readFileBytes(path, c.blob))
            out.push_back(std::move(c));
    };

    // The manifest-named checkpoint is the preferred candidate.
    std::vector<std::uint8_t> manifest;
    if (readFileBytes(manifestPath(shard), manifest)) {
        std::string fname(manifest.begin(), manifest.end());
        const std::size_t nl = fname.find('\n');
        if (nl != std::string::npos)
            fname.resize(nl);
        std::uint64_t seq = 0;
        if (seqOfName(fname, seq))
            addFile(shardDir(shard) + "/" + fname, seq);
    }

    // Any other retained checkpoint of this shard, newest first.
    for (const auto &file : listCheckpoints(shardDir(shard)))
        addFile(file.second, file.first);
    return out;
}

} // namespace csprint
