#include "sprint/checkpoint.hh"

#include <algorithm>
#include <cerrno>
#include <cmath>
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
 * The single friend of every serializable type: static write/read
 * pairs that dump and overwrite private state field for field. Reads
 * operate on objects already constructed from the ScenarioConfig (so
 * geometry and derived caches come from the config, not the blob) and
 * validate every index and mask that could otherwise be walked into
 * undefined behaviour.
 */
struct CheckpointIO
{
    // ----- common/ ---------------------------------------------------

    static void
    write(BlobWriter &w, const Rng &rng)
    {
        for (int i = 0; i < 4; ++i)
            w.u64(rng.s[i]);
    }

    static void
    read(BlobReader &r, Rng &rng)
    {
        for (int i = 0; i < 4; ++i)
            rng.s[i] = r.u64();
    }

    static void
    write(BlobWriter &w, const P2Quantile &q)
    {
        w.f64(q.q_);
        w.u64(q.n);
        for (int i = 0; i < 5; ++i)
            w.f64(q.height[i]);
        for (int i = 0; i < 5; ++i)
            w.f64(q.pos[i]);
        for (int i = 0; i < 5; ++i)
            w.f64(q.desired[i]);
        for (int i = 0; i < 5; ++i)
            w.f64(q.rate[i]);
    }

    static void
    read(BlobReader &r, P2Quantile &q)
    {
        q.q_ = r.f64();
        q.n = static_cast<std::size_t>(r.u64());
        for (int i = 0; i < 5; ++i)
            q.height[i] = r.f64();
        for (int i = 0; i < 5; ++i)
            q.pos[i] = r.f64();
        for (int i = 0; i < 5; ++i)
            q.desired[i] = r.f64();
        for (int i = 0; i < 5; ++i)
            q.rate[i] = r.f64();
    }

    static void
    write(BlobWriter &w, const TimeSeries &ts)
    {
        w.vecF64(ts.times);
        w.vecF64(ts.values);
    }

    static void
    read(BlobReader &r, TimeSeries &ts)
    {
        ts.times = r.vecF64();
        ts.values = r.vecF64();
        if (ts.times.size() != ts.values.size())
            corrupt("time series with mismatched time/value lengths");
    }

    static void
    write(BlobWriter &w, const DecimatingTrace &dt)
    {
        write(w, dt.ts);
        w.sz(dt.cap);
        w.sz(dt.stride_);
        w.sz(dt.next_store_);
        w.sz(dt.offered_);
    }

    static void
    read(BlobReader &r, DecimatingTrace &dt)
    {
        read(r, dt.ts);
        dt.cap = static_cast<std::size_t>(r.u64());
        dt.stride_ = static_cast<std::size_t>(r.u64());
        dt.next_store_ = static_cast<std::size_t>(r.u64());
        dt.offered_ = static_cast<std::size_t>(r.u64());
        if (dt.cap < 2 || dt.stride_ == 0)
            corrupt("decimating trace with degenerate capacity/stride");
    }

    static void
    write(BlobWriter &w, const MeltCycleCounter &mc)
    {
        w.f64(mc.rise_);
        w.f64(mc.fall_);
        w.boolean(mc.molten_);
        w.i64(mc.cycles_);
    }

    static void
    read(BlobReader &r, MeltCycleCounter &mc)
    {
        mc.rise_ = r.f64();
        mc.fall_ = r.f64();
        mc.molten_ = r.boolean();
        mc.cycles_ = static_cast<int>(r.i64());
    }

    static void
    write(BlobWriter &w, const ScenarioTraceSink &sink)
    {
        w.u8(static_cast<std::uint8_t>(sink.mode_));
        write(w, sink.junction_);
        write(w, sink.power_);
        write(w, sink.melt_);
        write(w, sink.junction_ring_);
        write(w, sink.power_ring_);
        write(w, sink.melt_ring_);
    }

    static void
    read(BlobReader &r, ScenarioTraceSink &sink)
    {
        const std::uint8_t mode = r.u8();
        if (mode > static_cast<std::uint8_t>(TraceMode::Off))
            corrupt("unknown trace-sink mode");
        sink.mode_ = static_cast<TraceMode>(mode);
        read(r, sink.junction_);
        read(r, sink.power_);
        read(r, sink.melt_);
        read(r, sink.junction_ring_);
        read(r, sink.power_ring_);
        read(r, sink.melt_ring_);
    }

    // ----- thermal / arrivals ---------------------------------------

    static void
    write(BlobWriter &w, const ThermalNetworkState &st)
    {
        w.vecF64(st.temps);
        w.vecF64(st.melt_fractions);
        w.vecF64(st.injected);
    }

    static void
    read(BlobReader &r, ThermalNetworkState &st)
    {
        st.temps = r.vecF64();
        st.melt_fractions = r.vecF64();
        st.injected = r.vecF64();
        if (st.melt_fractions.size() != st.temps.size() ||
            st.injected.size() != st.temps.size())
            corrupt("thermal snapshot with mismatched node counts");
    }

    static void
    write(BlobWriter &w, const ArrivalCursor &cur)
    {
        write(w, cur.rng);
        w.f64(cur.poisson_clock);
        w.u64(cur.index);
    }

    static void
    read(BlobReader &r, ArrivalCursor &cur)
    {
        read(r, cur.rng);
        cur.poisson_clock = r.f64();
        cur.index = r.u64();
    }

    // ----- surrogate fidelity tier ----------------------------------

    static void
    write(BlobWriter &w, const SurrogateClassModel &m)
    {
        w.u64(m.n);
        w.f64(m.service_mean);
        w.f64(m.service_m2);
        w.f64(m.energy_mean);
        w.f64(m.energy_m2);
        w.f64(m.ewma_service);
        w.f64(m.ewma_energy);
        w.f64(m.ewma_sprint_time);
        w.f64(m.ewma_sprint_energy);
        w.f64(m.ewma_heat_time);
        w.f64(m.ewma_heat_energy);
        w.f64(m.exhausted_ewma);
        w.f64(m.throttled_ewma);
        write(w, m.service_p95);
        w.u64(m.surrogate_runs);
        w.u64(m.audits);
        w.boolean(m.demoted);
        w.f64(m.worst_audit_error);
    }

    static void
    read(BlobReader &r, SurrogateClassModel &m)
    {
        m.n = r.u64();
        m.service_mean = r.f64();
        m.service_m2 = r.f64();
        m.energy_mean = r.f64();
        m.energy_m2 = r.f64();
        m.ewma_service = r.f64();
        m.ewma_energy = r.f64();
        m.ewma_sprint_time = r.f64();
        m.ewma_sprint_energy = r.f64();
        m.ewma_heat_time = r.f64();
        m.ewma_heat_energy = r.f64();
        m.exhausted_ewma = r.f64();
        m.throttled_ewma = r.f64();
        read(r, m.service_p95);
        m.surrogate_runs = r.u64();
        m.audits = r.u64();
        m.demoted = r.boolean();
        m.worst_audit_error = r.f64();
    }

    static void
    write(BlobWriter &w, const TaskSurrogate &s)
    {
        write(w, s.audit_rng_);
        w.u64(s.surrogate_tasks_);
        w.u64(s.audit_tasks_);
        w.i64(s.demotions_);
        w.sz(s.classes_.size());
        for (const auto &entry : s.classes_) {
            w.u32(entry.first);
            write(w, entry.second);
        }
    }

    static void
    read(BlobReader &r, TaskSurrogate &s)
    {
        read(r, s.audit_rng_);
        s.surrogate_tasks_ = r.u64();
        s.audit_tasks_ = r.u64();
        s.demotions_ = static_cast<int>(r.i64());
        const std::size_t count = static_cast<std::size_t>(r.u64());
        s.classes_.clear();
        for (std::size_t i = 0; i < count; ++i) {
            const std::uint32_t key = r.u32();
            // classKey packs (kernel << 8) | (size << 1) | sprinted.
            if ((key >> 8) > static_cast<std::uint32_t>(
                                 KernelId::Segment) ||
                ((key >> 1) & 0x7fu) >
                    static_cast<std::uint32_t>(InputSize::D))
                corrupt("surrogate class key out of range");
            if (s.classes_.count(key))
                corrupt("duplicate surrogate class key");
            read(r, s.classes_[key]);
        }
    }

    // ----- caches / memory / energy ---------------------------------

    static void
    write(BlobWriter &w, const CacheStats &st)
    {
        w.u64(st.hits);
        w.u64(st.misses);
        w.u64(st.evictions);
        w.u64(st.dirty_evictions);
        w.u64(st.invalidations);
    }

    static void
    read(BlobReader &r, CacheStats &st)
    {
        st.hits = r.u64();
        st.misses = r.u64();
        st.evictions = r.u64();
        st.dirty_evictions = r.u64();
        st.invalidations = r.u64();
    }

    static void
    write(BlobWriter &w, const Cache &c)
    {
        w.sz(c.sets);
        w.i64(c.ways);
        w.vecU64(c.tags);
        w.sz(c.meta.size());
        for (const Cache::SetMeta &m : c.meta) {
            w.u64(m.order);
            w.u16(m.valid);
            w.u16(m.dirty);
        }
        write(w, c.counters);
    }

    static void
    read(BlobReader &r, Cache &c)
    {
        const std::size_t sets = static_cast<std::size_t>(r.u64());
        const int ways = static_cast<int>(r.i64());
        if (sets != c.sets || ways != c.ways)
            corrupt("cache geometry differs from the configuration");
        c.tags = r.vecU64();
        if (c.tags.size() != sets * static_cast<std::size_t>(ways))
            corrupt("cache tag array size mismatch");
        const std::size_t nmeta = r.sz();
        if (nmeta != sets)
            corrupt("cache metadata size mismatch");
        const std::uint16_t way_mask = static_cast<std::uint16_t>(
            ways >= 16 ? 0xFFFFu : ((1u << ways) - 1u));
        for (std::size_t s = 0; s < nmeta; ++s) {
            Cache::SetMeta &m = c.meta[s];
            m.order = r.u64();
            m.valid = r.u16();
            m.dirty = r.u16();
            m.pad = 0;
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
        read(r, c.counters);
        // The MRU shortcut is a pure hint; start it cold.
        c.hint_set = 0;
        c.hint_way = 0;
        c.hint_line = ~std::uint64_t(0);
    }

    static void
    writeCoreSet(BlobWriter &w, const CoreSet &s)
    {
        w.i64(s.capacity());
        w.i64(s.count());
        s.forEach([&w](int c) { w.i64(c); });
    }

    static void
    readCoreSet(BlobReader &r, CoreSet &s, int expect_capacity)
    {
        const std::int64_t cap = r.i64();
        const std::int64_t n = r.i64();
        if (cap != expect_capacity)
            corrupt("core-set capacity differs from the configuration");
        if (n < 0 || n > cap)
            corrupt("core-set member count out of range");
        s.resize(expect_capacity);
        std::int64_t prev = -1;
        for (std::int64_t i = 0; i < n; ++i) {
            const std::int64_t c = r.i64();
            if (c <= prev || c >= cap)
                corrupt("core-set members not strictly ascending in "
                        "range");
            s.add(static_cast<int>(c));
            prev = c;
        }
    }

    static void
    write(BlobWriter &w, const L2Stats &st)
    {
        w.u64(st.hits);
        w.u64(st.misses);
        w.u64(st.invalidations_sent);
        w.u64(st.downgrades_sent);
        w.u64(st.inclusion_recalls);
        w.u64(st.writebacks_received);
        w.u64(st.directory_spills);
    }

    static void
    read(BlobReader &r, L2Stats &st)
    {
        st.hits = r.u64();
        st.misses = r.u64();
        st.invalidations_sent = r.u64();
        st.downgrades_sent = r.u64();
        st.inclusion_recalls = r.u64();
        st.writebacks_received = r.u64();
        st.directory_spills = r.u64();
    }

    static void
    write(BlobWriter &w, const SharedL2 &l2)
    {
        write(w, l2.tags);
        w.sz(l2.dir.size());
        for (const SharedL2::DirEntry &e : l2.dir) {
            for (int i = 0; i < SharedL2::kInlineSharers; ++i)
                w.i16(e.ptr[i]);
            w.i16(e.dirty_owner);
            w.u8(e.nptr);
            w.boolean(e.overflow);
            w.boolean(e.l2_dirty);
            w.u32(e.ovf);
        }
        w.vecU64(l2.pool);
        w.vec(l2.pool_free,
              [](BlobWriter &w2, std::uint32_t v) { w2.u32(v); });
        writeCoreSet(w, l2.l1_mutations);
        write(w, l2.counters);
    }

    static void
    read(BlobReader &r, SharedL2 &l2)
    {
        read(r, l2.tags);
        const std::size_t nd = r.sz();
        if (nd != l2.dir.size())
            corrupt("directory size differs from the tag store");
        for (SharedL2::DirEntry &e : l2.dir) {
            for (int i = 0; i < SharedL2::kInlineSharers; ++i)
                e.ptr[i] = r.i16();
            e.dirty_owner = r.i16();
            e.nptr = r.u8();
            e.overflow = r.boolean();
            e.l2_dirty = r.boolean();
            e.ovf = r.u32();
            if (e.nptr > SharedL2::kInlineSharers)
                corrupt("directory entry with too many inline sharers");
            if (e.dirty_owner < -1 || e.dirty_owner >= l2.num_cores)
                corrupt("directory dirty owner out of range");
            if (!e.overflow) {
                for (int i = 0; i < e.nptr; ++i) {
                    if (e.ptr[i] < 0 || e.ptr[i] >= l2.num_cores)
                        corrupt("inline sharer id out of range");
                }
            }
        }
        l2.pool = r.vecU64();
        const std::size_t wpb = l2.words_per_block;
        if (wpb == 0 ? !l2.pool.empty() : l2.pool.size() % wpb != 0)
            corrupt("overflow pool size not a whole number of blocks");
        const std::size_t blocks = wpb ? l2.pool.size() / wpb : 0;
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
                    corrupt("overflow sharer bit beyond the core count");
            }
        }
        l2.pool_free = r.vec<std::uint32_t>(
            4, [](BlobReader &r2) { return r2.u32(); });
        for (std::uint32_t b : l2.pool_free) {
            if (b >= blocks)
                corrupt("recycled overflow block index out of range");
        }
        readCoreSet(r, l2.l1_mutations, l2.num_cores);
        read(r, l2.counters);
    }

    static void
    write(BlobWriter &w, const MemorySystem &mem)
    {
        w.f64(mem.mult);
        w.vecF64(mem.next_free);
        w.u64(mem.counters.reads);
        w.u64(mem.counters.writebacks);
        w.u64(mem.counters.queued_cycles);
    }

    static void
    read(BlobReader &r, MemorySystem &mem)
    {
        mem.mult = r.f64();
        if (!(mem.mult > 0.0) || !std::isfinite(mem.mult))
            corrupt("memory frequency multiplier not positive");
        mem.next_free = r.vecF64();
        if (mem.next_free.size() !=
            static_cast<std::size_t>(mem.cfg.channels))
            corrupt("memory channel count differs from the "
                    "configuration");
        mem.counters.reads = r.u64();
        mem.counters.writebacks = r.u64();
        mem.counters.queued_cycles = r.u64();
    }

    static void
    write(BlobWriter &w, const InstructionEnergyModel &em)
    {
        w.i64(em.params.node_nm);
        w.f64(em.params.vdd);
        w.f64(em.params.clock);
        w.f64(em.params.cap_scale);
        for (std::size_t i = 0; i < kNumOpKinds; ++i)
            w.f64(em.op_energy[i]);
        w.f64(em.l2_energy);
        w.f64(em.dram_energy);
        w.f64(em.idle_energy);
        w.f64(em.nominal_cycle);
    }

    static void
    read(BlobReader &r, InstructionEnergyModel &em)
    {
        em.params.node_nm = static_cast<int>(r.i64());
        em.params.vdd = r.f64();
        em.params.clock = r.f64();
        em.params.cap_scale = r.f64();
        for (std::size_t i = 0; i < kNumOpKinds; ++i)
            em.op_energy[i] = r.f64();
        em.l2_energy = r.f64();
        em.dram_energy = r.f64();
        em.idle_energy = r.f64();
        em.nominal_cycle = r.f64();
    }

    // ----- machine ---------------------------------------------------

    static void
    write(BlobWriter &w, const MachineStats &st)
    {
        w.u64(st.cycles);
        w.f64(st.seconds);
        w.u64(st.ops_retired);
        for (std::size_t i = 0; i < kNumOpKinds; ++i)
            w.u64(st.ops_by_kind[i]);
        w.u64(st.l1_hits);
        w.u64(st.l1_misses);
        w.u64(st.idle_cycles);
        w.u64(st.sleep_cycles);
        w.u64(st.barrier_arrivals);
        w.f64(st.dynamic_energy);
    }

    static void
    read(BlobReader &r, MachineStats &st)
    {
        st.cycles = r.u64();
        st.seconds = r.f64();
        st.ops_retired = r.u64();
        for (std::size_t i = 0; i < kNumOpKinds; ++i)
            st.ops_by_kind[i] = r.u64();
        st.l1_hits = r.u64();
        st.l1_misses = r.u64();
        st.idle_cycles = r.u64();
        st.sleep_cycles = r.u64();
        st.barrier_arrivals = r.u64();
        st.dynamic_energy = r.f64();
    }

    static void
    writeStream(BlobWriter &w, const OpStream &s)
    {
        if (const auto *v = dynamic_cast<const VectorOpStream *>(&s)) {
            w.u8(0);
            w.sz(v->pos);
            return;
        }
        if (const auto *c = dynamic_cast<const ChunkedOpStream *>(&s)) {
            if (c->pos < c->buffer.size())
                unsupported("chunked op stream holds an undrained "
                            "buffer (machine not at a bulk-refill "
                            "boundary)");
            w.u8(1);
            w.sz(c->next_chunk);
            return;
        }
        unsupported("custom OpStream type cannot be checkpointed");
    }

    static std::unique_ptr<OpStream>
    readStream(BlobReader &r, const Phase &phase, std::size_t task)
    {
        if (phase.make_task == nullptr || task >= phase.num_tasks)
            corrupt("stream task index out of range for the phase");
        std::unique_ptr<OpStream> s = phase.make_task(task);
        const std::uint8_t type = r.u8();
        if (type == 0) {
            auto *v = dynamic_cast<VectorOpStream *>(s.get());
            if (!v)
                corrupt("blob says vector stream; factory built "
                        "another type");
            const std::size_t pos = static_cast<std::size_t>(r.u64());
            if (pos > v->ops.size())
                corrupt("vector stream cursor past the end");
            v->pos = pos;
        } else if (type == 1) {
            auto *c = dynamic_cast<ChunkedOpStream *>(s.get());
            if (!c)
                corrupt("blob says chunked stream; factory built "
                        "another type");
            const std::size_t next = static_cast<std::size_t>(r.u64());
            if (next > c->num_chunks)
                corrupt("chunked stream cursor past the last chunk");
            // Replay the consumed chunks in order so stateful
            // generator closures reach the state they held at the
            // snapshot; the machine's pending ops live in the
            // thread's buffered window, not here.
            for (std::size_t i = 0; i < next; ++i)
                c->fn(i, c->buffer);
            c->buffer.clear();
            c->pos = 0;
            c->next_chunk = next;
        } else {
            corrupt("unknown op-stream type tag");
        }
        return s;
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

    static void
    write(BlobWriter &w, const Machine &m)
    {
        requireSuspendedBoundary(m);
        w.u64(m.cycle);
        w.f64(m.freq_mult);
        w.f64(m.time_base);
        w.u64(m.cycle_base);
        w.sz(m.phase_idx);
        w.sz(m.serial_next_task);
        w.sz(m.dynamic_next_task);
        w.u64(m.dequeue_free_at);
        w.sz(m.barrier_count);
        w.i64(m.active_cores);
        w.boolean(m.mem_batch_ok);
        write(w, m.cfg.energy);
        write(w, m.totals);
        w.vec(m.locks, [](BlobWriter &w2, const Machine::LockState &l) {
            w2.i64(l.holder);
        });
        w.sz(m.threads.size());
        for (const Machine::Thread &t : m.threads) {
            // A thread parked at a barrier may still hold the stream
            // of its last task; enterPhase resets it before it is
            // ever read again, so canonicalize it away.
            const bool has_stream =
                t.stream != nullptr && !t.at_barrier;
            w.boolean(has_stream);
            if (has_stream) {
                w.sz(t.current_task);
                writeStream(w, *t.stream);
            }
            w.boolean(t.at_barrier);
            w.u64(t.sleep_until);
            w.i64(t.spin_failures);
            w.sz(t.next_task);
            w.sz(t.task_end);
            // Only the pending window of the bulk op buffer matters.
            w.sz(t.buf_len - t.buf_pos);
            for (std::size_t i = t.buf_pos; i < t.buf_len; ++i)
                w.u64(t.buf[i].bits);
        }
        w.sz(m.cores.size());
        for (const Machine::Core &c : m.cores) {
            w.boolean(c.active);
            w.vec(c.run_queue,
                  [](BlobWriter &w2, std::size_t v) { w2.sz(v); });
            w.sz(c.rr);
            w.i64(c.current);
            w.u64(c.busy_until);
            w.u64(c.quantum_end);
            w.boolean(c.idle_repeat);
            w.u64(c.idle_from);
        }
        w.sz(m.next_event.size());
        for (Cycles ev : m.next_event)
            w.u64(ev);
        w.sz(m.l1s.size());
        for (const Cache &c : m.l1s)
            write(w, c);
        write(w, *m.l2);
        write(w, *m.memory);
    }

    static void
    read(BlobReader &r, Machine &m, const ParallelProgram &program)
    {
        m.cycle = r.u64();
        m.freq_mult = r.f64();
        if (!(m.freq_mult > 0.0) || !std::isfinite(m.freq_mult))
            corrupt("machine frequency multiplier not positive");
        m.time_base = r.f64();
        m.cycle_base = r.u64();
        m.phase_idx = static_cast<std::size_t>(r.u64());
        if (m.phase_idx > program.phases().size())
            corrupt("phase index out of range");
        m.serial_next_task = static_cast<std::size_t>(r.u64());
        m.dynamic_next_task = static_cast<std::size_t>(r.u64());
        m.dequeue_free_at = r.u64();
        m.barrier_count = static_cast<std::size_t>(r.u64());
        const std::int64_t active = r.i64();
        if (active < 0 ||
            active > static_cast<std::int64_t>(m.cores.size()))
            corrupt("active core count out of range");
        m.active_cores = static_cast<int>(active);
        m.mem_batch_ok = r.boolean();
        read(r, m.cfg.energy);
        read(r, m.totals);
        m.locks = r.vec<Machine::LockState>(8, [&m](BlobReader &r2) {
            Machine::LockState l;
            l.holder = static_cast<int>(r2.i64());
            if (l.holder < -1 ||
                l.holder >= static_cast<int>(m.threads.size()))
                corrupt("lock holder out of range");
            return l;
        });
        const std::size_t nt = r.u64();
        if (nt != m.threads.size())
            corrupt("thread count differs from the configuration");
        for (Machine::Thread &t : m.threads) {
            const bool has_stream = r.boolean();
            if (has_stream) {
                t.current_task = static_cast<std::size_t>(r.u64());
                if (m.phase_idx >= program.phases().size())
                    corrupt("live stream in a finished machine");
                t.stream = readStream(
                    r, program.phases()[m.phase_idx], t.current_task);
            } else {
                t.stream.reset();
                t.current_task = 0;
            }
            t.at_barrier = r.boolean();
            t.sleep_until = r.u64();
            t.spin_failures = static_cast<int>(r.i64());
            t.next_task = static_cast<std::size_t>(r.u64());
            t.task_end = static_cast<std::size_t>(r.u64());
            // The window can exceed kOpBufferCap: a chunked stream's
            // fillInto swaps whole chunks into the thread buffer.
            // Bound it by the bytes actually present (8 per op).
            const std::size_t n = static_cast<std::size_t>(r.u64());
            if (n > r.remaining() / 8)
                corrupt("op window larger than the remaining bytes");
            if (t.buf.size() < n)
                t.buf.resize(n);
            for (std::size_t i = 0; i < n; ++i)
                t.buf[i].bits = r.u64();
            t.buf_pos = 0;
            t.buf_len = n;
        }
        const std::size_t nc = r.u64();
        if (nc != m.cores.size())
            corrupt("core count differs from the configuration");
        for (Machine::Core &c : m.cores) {
            c.active = r.boolean();
            c.run_queue = r.vec<std::size_t>(8, [&m](BlobReader &r2) {
                const std::uint64_t v = r2.u64();
                if (v >= m.threads.size())
                    corrupt("run-queue thread id out of range");
                return static_cast<std::size_t>(v);
            });
            c.rr = static_cast<std::size_t>(r.u64());
            if (!c.run_queue.empty() && c.rr >= c.run_queue.size())
                corrupt("round-robin cursor out of range");
            const std::int64_t cur = r.i64();
            if (cur < -1 ||
                cur >= static_cast<std::int64_t>(m.threads.size()))
                corrupt("current thread id out of range");
            c.current = static_cast<int>(cur);
            c.busy_until = r.u64();
            c.quantum_end = r.u64();
            c.idle_repeat = r.boolean();
            c.idle_from = r.u64();
        }
        const std::size_t nev = r.u64();
        if (nev != m.next_event.size())
            corrupt("next-event array size mismatch");
        for (std::size_t i = 0; i < nev; ++i)
            m.next_event[i] = r.u64();
        const std::size_t nl1 = r.u64();
        if (nl1 != m.l1s.size())
            corrupt("L1 count differs from the configuration");
        for (Cache &c : m.l1s)
            read(r, c);
        read(r, *m.l2);
        read(r, *m.memory);

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

    // ----- warm re-activation husk ----------------------------------

    /**
     * The warm machine only ever feeds warmStartFrom(), which reads
     * the cache geometry, L1/L2/directory contents, the memory
     * channel residuals, and the cycle count — so the husk record
     * skips thread/core scheduler state entirely and rebuilds the
     * machine against an empty program.
     */
    static void
    writeWarmHusk(BlobWriter &w, const ScenarioConfig &cfg,
                  const Machine &m)
    {
        const bool granted = m.cfg.num_cores ==
                             cfg.platform.machineConfig().num_cores;
        w.boolean(granted);
        w.u64(m.cycle);
        w.sz(m.l1s.size());
        for (const Cache &c : m.l1s)
            write(w, c);
        write(w, *m.l2);
        write(w, *m.memory);
    }

    static void
    readWarmHusk(BlobReader &r, const ScenarioConfig &cfg,
                 ScenarioCheckpoint &ck)
    {
        const bool granted = r.boolean();
        const SprintConfig run_cfg =
            granted ? cfg.platform : consolidatedPlatform(cfg.platform);
        ck.warm_program = std::make_unique<ParallelProgram>("warm-husk");
        ck.warm_machine = prepareMachine(*ck.warm_program, run_cfg);
        Machine &m = *ck.warm_machine;
        m.cycle = r.u64();
        const std::size_t nl1 = r.u64();
        if (nl1 != m.l1s.size())
            corrupt("warm husk L1 count differs from the "
                    "configuration");
        for (Cache &c : m.l1s)
            read(r, c);
        read(r, *m.l2);
        read(r, *m.memory);
    }

    // ----- scenario value records -----------------------------------

    static void
    write(BlobWriter &w, const ScenarioTask &t)
    {
        w.f64(t.arrival);
        w.u8(static_cast<std::uint8_t>(t.kernel));
        w.u8(static_cast<std::uint8_t>(t.size));
        w.u64(t.seed);
        w.i64(t.priority);
        w.f64(t.deadline);
    }

    static void
    read(BlobReader &r, ScenarioTask &t)
    {
        t.arrival = r.f64();
        const std::uint8_t kernel = r.u8();
        if (kernel > static_cast<std::uint8_t>(KernelId::Segment))
            corrupt("unknown kernel id");
        t.kernel = static_cast<KernelId>(kernel);
        const std::uint8_t size = r.u8();
        if (size > static_cast<std::uint8_t>(InputSize::D))
            corrupt("unknown input size");
        t.size = static_cast<InputSize>(size);
        t.seed = r.u64();
        t.priority = static_cast<int>(r.i64());
        t.deadline = r.f64();
    }

    static void
    write(BlobWriter &w, const RunResult &rr)
    {
        w.str(rr.program_name);
        w.i64(rr.sprint_cores);
        w.i64(rr.num_threads);
        w.f64(rr.dvfs_boost);
        w.f64(rr.task_time);
        w.f64(rr.dynamic_energy);
        w.f64(rr.peak_junction);
        w.f64(rr.final_melt_fraction);
        w.boolean(rr.sprint_exhausted);
        w.boolean(rr.hardware_throttled);
        w.f64(rr.sprint_duration);
        w.f64(rr.sprint_energy);
        w.f64(rr.cooldown_estimate);
        w.f64(rr.avg_power);
        w.f64(rr.sampled_time);
        w.f64(rr.sampled_energy);
        write(w, rr.junction_trace);
        write(w, rr.power_trace);
        write(w, rr.melt_trace);
        write(w, rr.machine);
    }

    static void
    read(BlobReader &r, RunResult &rr)
    {
        rr.program_name = r.str();
        rr.sprint_cores = static_cast<int>(r.i64());
        rr.num_threads = static_cast<int>(r.i64());
        rr.dvfs_boost = r.f64();
        rr.task_time = r.f64();
        rr.dynamic_energy = r.f64();
        rr.peak_junction = r.f64();
        rr.final_melt_fraction = r.f64();
        rr.sprint_exhausted = r.boolean();
        rr.hardware_throttled = r.boolean();
        rr.sprint_duration = r.f64();
        rr.sprint_energy = r.f64();
        rr.cooldown_estimate = r.f64();
        rr.avg_power = r.f64();
        rr.sampled_time = r.f64();
        rr.sampled_energy = r.f64();
        read(r, rr.junction_trace);
        read(r, rr.power_trace);
        read(r, rr.melt_trace);
        read(r, rr.machine);
    }

    static void
    write(BlobWriter &w, const ScenarioTaskResult &t)
    {
        w.f64(t.arrival);
        w.f64(t.start);
        w.f64(t.finish);
        w.f64(t.response);
        w.boolean(t.sprint_granted);
        w.f64(t.melt_at_start);
        w.f64(t.melt_at_end);
        w.i64(t.priority);
        w.f64(t.deadline);
        w.boolean(t.deadline_met);
        w.i64(t.preemptions);
        write(w, t.run);
    }

    static void
    read(BlobReader &r, ScenarioTaskResult &t)
    {
        t.arrival = r.f64();
        t.start = r.f64();
        t.finish = r.f64();
        t.response = r.f64();
        t.sprint_granted = r.boolean();
        t.melt_at_start = r.f64();
        t.melt_at_end = r.f64();
        t.priority = static_cast<int>(r.i64());
        t.deadline = r.f64();
        t.deadline_met = r.boolean();
        t.preemptions = static_cast<int>(r.i64());
        read(r, t.run);
    }

    static void
    write(BlobWriter &w, const PumpState &p)
    {
        w.f64(p.elapsed);
        w.f64(p.ramp_time);
        w.f64(p.above_tdp_time);
        w.f64(p.above_tdp_energy);
        w.f64(p.sampled_time);
        w.f64(p.sampled_energy);
        w.f64(p.peak_junction);
        w.boolean(p.sprint_exhausted);
        w.boolean(p.hardware_throttled);
        w.boolean(p.policy_throttled);
        write(w, p.junction_trace);
        write(w, p.power_trace);
        write(w, p.melt_trace);
    }

    static void
    read(BlobReader &r, PumpState &p)
    {
        p.elapsed = r.f64();
        p.ramp_time = r.f64();
        p.above_tdp_time = r.f64();
        p.above_tdp_energy = r.f64();
        p.sampled_time = r.f64();
        p.sampled_energy = r.f64();
        p.peak_junction = r.f64();
        p.sprint_exhausted = r.boolean();
        p.hardware_throttled = r.boolean();
        p.policy_throttled = r.boolean();
        read(r, p.junction_trace);
        read(r, p.power_trace);
        read(r, p.melt_trace);
    }

    static void
    writeExecution(BlobWriter &w, const ScenarioConfig &cfg,
                   const ScenarioTaskExecution &ex)
    {
        write(w, ex.task);
        w.boolean(ex.started);
        w.boolean(ex.sprint_granted);
        w.i64(ex.preemptions);
        w.f64(ex.first_start);
        w.f64(ex.melt_at_start);
        write(w, ex.pump);
        const bool has_machine = ex.machine != nullptr;
        w.boolean(has_machine);
        if (has_machine)
            write(w, *ex.machine);
        (void)cfg;
    }

    static std::unique_ptr<ScenarioTaskExecution>
    readExecution(BlobReader &r, const ScenarioConfig &cfg)
    {
        auto ex = std::make_unique<ScenarioTaskExecution>();
        read(r, ex->task);
        ex->started = r.boolean();
        ex->sprint_granted = r.boolean();
        ex->preemptions = static_cast<int>(r.i64());
        ex->first_start = r.f64();
        ex->melt_at_start = r.f64();
        read(r, ex->pump);
        const bool has_machine = r.boolean();
        if (has_machine) {
            // A suspended execution rebuilds its program and machine
            // from the config's factories (the same three lines the
            // engine's dispatch path runs), then overwrites the
            // machine's architectural state from the blob.
            ex->run_cfg = ex->sprint_granted
                              ? cfg.platform
                              : consolidatedPlatform(cfg.platform);
            ex->program = std::make_unique<ParallelProgram>(
                cfg.program_factory
                    ? cfg.program_factory(ex->task)
                    : buildKernelProgram(ex->task.kernel, ex->task.size,
                                         ex->task.seed));
            ex->machine = prepareMachine(*ex->program, ex->run_cfg);
            read(r, *ex->machine, *ex->program);
        }
        return ex;
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
        d.f64(cfg.policy.resume_fraction);
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
        d.i64(cfg.idle_trace_samples);
        d.i64(static_cast<int>(cfg.trace_mode));
        d.sz(cfg.trace_capacity);
        d.boolean(cfg.keep_task_results);
        d.i64(static_cast<int>(cfg.idle_model));
        d.f64(cfg.idle_tolerance);
        // Constant bytes stand where the format once hashed
        // generic_dispatch and verify_pipeline_build (now in
        // cfg.debug, which no digest covers), so stored checkpoints
        // keep their digests.
        d.boolean(false);
        d.boolean(cfg.pipeline_build);
        d.boolean(false);
        d.f64(cfg.policy.risk_quantile);
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
    w.boolean(ck.done);
    CheckpointIO::write(w, ck.arrivals);
    CheckpointIO::write(w, ck.thermal);
    w.vecF64(ck.policy_state);
    w.f64(ck.now);
    w.f64(ck.busy);
    ck.encode(w);
    w.f64(ck.peak_melt);
    CheckpointIO::write(w, ck.p50);
    CheckpointIO::write(w, ck.p95);
    CheckpointIO::write(w, ck.melt_cycles);
    CheckpointIO::write(w, ck.traces);
    CheckpointIO::write(w, ck.surrogate);
    w.vec(ck.tasks, [](BlobWriter &w2, const ScenarioTaskResult &t) {
        CheckpointIO::write(w2, t);
    });
    w.boolean(ck.have_peek);
    if (ck.have_peek)
        CheckpointIO::write(w, ck.peek);
    w.sz(ck.ready.size());
    for (const auto &ex : ck.ready) {
        if (ex == nullptr)
            unsupported("null execution in the ready queue");
        CheckpointIO::writeExecution(w, cfg, *ex);
    }
    const bool has_warm = ck.warm_machine != nullptr;
    w.boolean(has_warm);
    if (has_warm)
        CheckpointIO::writeWarmHusk(w, cfg, *ck.warm_machine);
    return BlobContainer::seal(scenarioConfigDigest(cfg), w.take());
}

ScenarioCheckpoint
deserializeCheckpoint(const ScenarioConfig &cfg,
                      const std::vector<std::uint8_t> &blob)
{
    BlobReader r = BlobContainer::open(blob, scenarioConfigDigest(cfg));
    ScenarioCheckpoint ck;
    ck.done = r.boolean();
    CheckpointIO::read(r, ck.arrivals);
    CheckpointIO::read(r, ck.thermal);
    ck.policy_state = r.vecF64();
    ck.now = r.f64();
    ck.busy = r.f64();
    ck.decode(r);
    ck.peak_melt = r.f64();
    CheckpointIO::read(r, ck.p50);
    CheckpointIO::read(r, ck.p95);
    CheckpointIO::read(r, ck.melt_cycles);
    CheckpointIO::read(r, ck.traces);
    CheckpointIO::read(r, ck.surrogate);
    ck.tasks = r.vec<ScenarioTaskResult>(1, [](BlobReader &r2) {
        ScenarioTaskResult t;
        CheckpointIO::read(r2, t);
        return t;
    });
    ck.have_peek = r.boolean();
    if (ck.have_peek)
        CheckpointIO::read(r, ck.peek);
    const std::size_t nready = r.sz();
    ck.ready.reserve(nready);
    for (std::size_t i = 0; i < nready; ++i)
        ck.ready.push_back(CheckpointIO::readExecution(r, cfg));
    const bool has_warm = r.boolean();
    if (has_warm)
        CheckpointIO::readWarmHusk(r, cfg, ck);
    r.expectEnd();
    return ck;
}

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
