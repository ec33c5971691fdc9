#include "archsim/l2.hh"

#include <algorithm>

#include "common/logging.hh"

namespace csprint {

SharedL2::SharedL2(const L2Config &cfg, MemorySystem &memory,
                   int num_cores)
    : cfg(cfg), memory(memory), num_cores(num_cores),
      words_per_block(static_cast<std::size_t>((num_cores + 63) / 64)),
      tags(cfg.size_bytes, cfg.assoc, cfg.line_bytes),
      dir(tags.numSlots()), l1_mutations(num_cores)
{
    SPRINT_ASSERT(num_cores >= 1, "directory needs at least one core");
    SPRINT_ASSERT(num_cores <= 32767,
                  "directory pointers are 16-bit core ids");
}

std::uint32_t
SharedL2::allocBlock()
{
    std::uint32_t b;
    if (!pool_free.empty()) {
        b = pool_free.back();
        pool_free.pop_back();
    } else {
        b = static_cast<std::uint32_t>(pool.size() / words_per_block);
        pool.resize(pool.size() + words_per_block);
    }
    std::uint64_t *words = &pool[b * words_per_block];
    std::fill(words, words + words_per_block, 0);
    return b;
}

void
SharedL2::spill(DirEntry &entry)
{
    const std::uint32_t b = allocBlock();
    std::uint64_t *words = &pool[b * words_per_block];
    for (int i = 0; i < entry.nptr; ++i) {
        const int c = entry.ptr[i];
        words[c >> 6] |= std::uint64_t(1) << (c & 63);
    }
    entry.ovf = b;
    entry.overflow = true;
    entry.nptr = 0;
    // FullMap entries live on the bitset path from their first
    // sharer; only a genuine limited-pointer overflow is a spill.
    if (cfg.directory == DirectoryKind::Sparse)
        ++counters.directory_spills;
}

bool
SharedL2::hasSharer(const DirEntry &entry, int core) const
{
    if (entry.overflow) {
        return (pool[entry.ovf * words_per_block + (core >> 6)] >>
                (core & 63)) &
               1u;
    }
    for (int i = 0; i < entry.nptr; ++i) {
        if (entry.ptr[i] == core)
            return true;
    }
    return false;
}

void
SharedL2::addSharer(DirEntry &entry, int core)
{
    if (entry.overflow) {
        pool[entry.ovf * words_per_block + (core >> 6)] |=
            std::uint64_t(1) << (core & 63);
        return;
    }
    for (int i = 0; i < entry.nptr; ++i) {
        if (entry.ptr[i] == core)
            return;
    }
    if (cfg.directory == DirectoryKind::FullMap ||
        entry.nptr == kInlineSharers) {
        spill(entry);
        pool[entry.ovf * words_per_block + (core >> 6)] |=
            std::uint64_t(1) << (core & 63);
        return;
    }
    // Keep the inline list sorted so forEachSharer visits cores in
    // ascending id order on both representations.
    int i = entry.nptr;
    while (i > 0 && entry.ptr[i - 1] > core) {
        entry.ptr[i] = entry.ptr[i - 1];
        --i;
    }
    entry.ptr[i] = static_cast<std::int16_t>(core);
    ++entry.nptr;
}

void
SharedL2::removeSharer(DirEntry &entry, int core)
{
    if (entry.overflow) {
        pool[entry.ovf * words_per_block + (core >> 6)] &=
            ~(std::uint64_t(1) << (core & 63));
        return;
    }
    for (int i = 0; i < entry.nptr; ++i) {
        if (entry.ptr[i] != core)
            continue;
        for (int j = i + 1; j < entry.nptr; ++j)
            entry.ptr[j - 1] = entry.ptr[j];
        --entry.nptr;
        return;
    }
}

void
SharedL2::clearSharers(DirEntry &entry)
{
    if (entry.overflow) {
        pool_free.push_back(entry.ovf);
        entry.overflow = false;
    }
    entry.nptr = 0;
}

void
SharedL2::clearEntry(DirEntry &entry)
{
    clearSharers(entry);
    entry.dirty_owner = -1;
    entry.l2_dirty = false;
}

void
SharedL2::evictRecall(std::uint64_t line, const DirEntry &victim,
                      Cycles now, std::vector<Cache> &l1s)
{
    // Inclusion: recall the line from every L1 holding it.
    bool any_l1_dirty = false;
    forEachSharer(victim, [&](int c) {
        any_l1_dirty |= l1s[static_cast<std::size_t>(c)].invalidate(line);
        l1_mutations.add(c);
        ++counters.inclusion_recalls;
    });
    if (victim.l2_dirty || any_l1_dirty)
        memory.writeback(line, now);
}

void
SharedL2::peekL1Targets(std::uint64_t line, bool write, int requester,
                        CoreSet &out) const
{
    if (out.capacity() != num_cores)
        out.resize(num_cores);
    else
        out.clear();
    bool hit = false;
    const std::size_t slot = tags.peekSlot(line, hit);
    if (hit) {
        const DirEntry &entry = dir[slot];
        if (write) {
            forEachSharer(entry, [&](int c) {
                if (c != requester)
                    out.add(c);
            });
        } else if (entry.dirty_owner >= 0 &&
                   entry.dirty_owner != requester) {
            out.add(entry.dirty_owner);
        }
        return;
    }
    // Miss: an eviction recalls the victim line from every sharer;
    // the freshly installed entry has no other sharers to act on.
    if (tags.validAt(slot))
        forEachSharer(dir[slot], [&](int c) { out.add(c); });
}

Cycles
SharedL2::access(std::uint64_t line, bool write, int requester,
                 Cycles now, std::vector<Cache> &l1s)
{
    SPRINT_ASSERT(requester >= 0 && requester < num_cores,
                  "bad requester");
    SPRINT_ASSERT(l1s.size() == static_cast<std::size_t>(num_cores),
                  "L1 set does not match the directory width");

    Cycles latency = cfg.hit_latency;

    const CacheAccessResult tag_result = tags.access(line, false);
    DirEntry &entry = dir[tag_result.slot];

    if (tag_result.hit) {
        ++counters.hits;
    } else {
        ++counters.misses;
        latency += memory.read(line, now + latency);
        if (tag_result.evicted) {
            // The slot still holds the victim's directory state.
            evictRecall(tag_result.evicted_line, entry, now, l1s);
        }
        clearEntry(entry);
    }

    if (write) {
        // Invalidate every other sharer.
        bool remote = false;
        forEachSharer(entry, [&](int c) {
            if (c == requester)
                return;
            const bool was_dirty =
                l1s[static_cast<std::size_t>(c)].invalidate(line);
            if (was_dirty)
                entry.l2_dirty = true;
            l1_mutations.add(c);
            ++counters.invalidations_sent;
            remote = true;
        });
        clearSharers(entry);
        addSharer(entry, requester);
        entry.dirty_owner = static_cast<std::int16_t>(requester);
        entry.l2_dirty = true;
        if (remote)
            latency += cfg.coherence_penalty;
    } else {
        // Downgrade a remote dirty owner so the reader sees clean data.
        if (entry.dirty_owner >= 0 && entry.dirty_owner != requester) {
            l1s[entry.dirty_owner].markClean(line);
            l1_mutations.add(entry.dirty_owner);
            entry.l2_dirty = true;
            entry.dirty_owner = -1;
            ++counters.downgrades_sent;
            latency += cfg.coherence_penalty;
        }
        addSharer(entry, requester);
    }
    return latency;
}

void
SharedL2::writebackFromL1(std::uint64_t line, int from, Cycles now)
{
    ++counters.writebacks_received;
    const std::size_t slot = tags.findSlot(line);
    if (slot != Cache::kNoSlot) {
        DirEntry &entry = dir[slot];
        entry.l2_dirty = true;
        removeSharer(entry, from);
        if (entry.dirty_owner == from)
            entry.dirty_owner = -1;
    } else {
        // The line already left the L2 (inclusion recall raced with
        // the eviction in this approximation); forward to memory.
        memory.writeback(line, now);
    }
}

void
SharedL2::dropCores(const CoreSet &drop, std::vector<Cache> &l1s)
{
    SPRINT_ASSERT(drop.capacity() == num_cores,
                  "drop set does not match the directory width");
    if (drop.empty())
        return;
    // A sorted inline list entirely outside [lo, hi] holds no dropped
    // sharer.
    int lo = -1;
    int hi = -1;
    drop.forEach([&](int c) {
        if (lo < 0)
            lo = c;
        hi = c;
    });
    const auto dropSharer = [&](DirEntry &entry, std::uint64_t line,
                                int c) {
        if (l1s[static_cast<std::size_t>(c)].invalidate(line))
            entry.l2_dirty = true;
        l1_mutations.add(c);
        if (entry.dirty_owner == c)
            entry.dirty_owner = -1;
    };
    for (std::size_t slot = 0; slot < dir.size(); ++slot) {
        DirEntry &entry = dir[slot];
        if (!entry.overflow) {
            if (entry.nptr == 0 || entry.ptr[entry.nptr - 1] < lo ||
                entry.ptr[0] > hi || !tags.validAt(slot))
                continue;
            const std::uint64_t line = tags.lineAt(slot);
            int kept = 0;
            for (int i = 0; i < entry.nptr; ++i) {
                const int c = entry.ptr[i];
                if (drop.contains(c))
                    dropSharer(entry, line, c);
                else
                    entry.ptr[kept++] = entry.ptr[i];
            }
            entry.nptr = static_cast<std::uint8_t>(kept);
            continue;
        }
        std::uint64_t *words =
            &pool[static_cast<std::size_t>(entry.ovf) * words_per_block];
        std::uint64_t any = 0;
        for (std::size_t w = 0; w < words_per_block; ++w)
            any |= words[w] & drop.word(w);
        if (any == 0 || !tags.validAt(slot))
            continue;
        const std::uint64_t line = tags.lineAt(slot);
        for (std::size_t w = 0; w < words_per_block; ++w) {
            std::uint64_t hit = words[w] & drop.word(w);
            words[w] &= ~hit;
            while (hit) {
                dropSharer(entry, line,
                           static_cast<int>(w * 64) + __builtin_ctzll(hit));
                hit &= hit - 1;
            }
        }
    }
    drop.forEach(
        [&](int c) { l1s[static_cast<std::size_t>(c)].flush(); });
}

int
SharedL2::sharerCount(std::uint64_t line) const
{
    const std::size_t slot = tags.findSlot(line);
    if (slot == Cache::kNoSlot)
        return 0;
    int count = 0;
    forEachSharer(dir[slot], [&](int) { ++count; });
    return count;
}

void
SharedL2::adoptState(SharedL2 &&prev)
{
    SPRINT_ASSERT(cfg.size_bytes == prev.cfg.size_bytes &&
                      cfg.assoc == prev.cfg.assoc &&
                      cfg.line_bytes == prev.cfg.line_bytes,
                  "L2 state adoption requires identical geometry");
    SPRINT_ASSERT(cfg.directory == prev.cfg.directory,
                  "L2 state adoption requires one directory kind");
    tags = std::move(prev.tags);
    tags.resetStats();
    dir = std::move(prev.dir);
    if (words_per_block == prev.words_per_block) {
        pool = std::move(prev.pool);
        pool_free = std::move(prev.pool_free);
    } else {
        // Re-pack overflow bitsets to this directory's width. The
        // caller dropped every core at or beyond num_cores from the
        // adopted directory, so truncated words must be empty.
        pool.clear();
        pool_free.clear();
        const std::size_t keep =
            std::min(words_per_block, prev.words_per_block);
        for (DirEntry &entry : dir) {
            if (!entry.overflow)
                continue;
            const std::uint64_t *src =
                &prev.pool[entry.ovf * prev.words_per_block];
            for (std::size_t w = keep; w < prev.words_per_block; ++w)
                SPRINT_ASSERT(src[w] == 0,
                              "adopted sharer beyond directory width");
            const std::uint32_t b = allocBlock();
            std::copy(src, src + keep, &pool[b * words_per_block]);
            entry.ovf = b;
        }
    }
    l1_mutations.clear();
    counters = L2Stats();
}

} // namespace csprint
