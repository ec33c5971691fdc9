/**
 * @file
 * A set-associative, write-back, write-allocate cache tag array with
 * true-LRU replacement. Used for the private 32 KB L1s and as the tag
 * store of the shared L2 (paper Section 8.1). The cache operates on
 * line indices (byte address divided by the line size); data values
 * are not modelled, only presence, dirtiness, and recency.
 *
 * The tag array is stored structure-of-arrays: one contiguous
 * per-set run of tags (a single host cache line for an 8-way set) and
 * one packed per-set metadata word holding the recency order as a
 * move-to-front nibble list plus valid/dirty way masks. Recency is
 * positional, so a hit updates one 64-bit word instead of per-way LRU
 * timestamps; victim choice (first invalid way, else the true-LRU
 * way) is identical to a timestamp implementation.
 *
 * Two lookup paths exist: access() is the full allocate-on-miss path,
 * and accessIfPresent() is a hit-only probe that performs exactly the
 * recency, dirty-bit, and counter updates of a hitting access() and
 * touches nothing on a miss or an S->M upgrade. The machine's stride
 * probe, its hot path, looks hits up ahead of time through a HitProbe,
 * which changes no contents, and later replays them with
 * commitHits()/countHits().
 */

#ifndef CSPRINT_ARCHSIM_CACHE_HH
#define CSPRINT_ARCHSIM_CACHE_HH

#include <cstdint>
#include <vector>

namespace csprint {

/** Per-cache event counters. */
struct CacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t dirty_evictions = 0;
    std::uint64_t invalidations = 0;
};

/** Outcome of one access. */
struct CacheAccessResult
{
    bool hit = false;
    bool evicted = false;            ///< a victim line was displaced
    std::uint64_t evicted_line = 0;  ///< the victim's line index
    bool evicted_dirty = false;      ///< victim needed a write-back
    std::size_t slot = 0;            ///< storage slot of the line (the
                                     ///< victim's slot on an eviction)
};

/** Set-associative LRU tag array (at most 16 ways). */
class Cache
{
  private:
    /**
     * Per-set packed metadata: `order` lists way indices as nibbles,
     * most-recently-used in bits [0, 4); `valid`/`dirty` are way
     * bitmasks. `probe_way` is HitProbe::entry()'s way hint: the way
     * its last scan of this set found, checked first on the next
     * lookup. It is derived state, not contents: entry() checks the
     * valid bit and the tag at the hinted way and scans on any
     * mismatch, and a valid line sits in exactly one way, so a stale
     * hint costs a scan and never changes a result. Nothing else
     * reads it, checkpoints do not carry it (a restored set starts at
     * way 0), and it stays below the associativity.
     */
    struct SetMeta
    {
        std::uint64_t order = 0;
        std::uint16_t valid = 0;
        std::uint16_t dirty = 0;
        mutable std::uint32_t probe_way = 0;
    };

  public:
    /** Sentinel returned by findSlot() when a line is absent. */
    static constexpr std::size_t kNoSlot = ~std::size_t(0);

    /**
     * @param size_bytes total capacity
     * @param assoc ways per set (1..16)
     * @param line_bytes line size (used only to derive the set count)
     */
    Cache(std::size_t size_bytes, int assoc, std::size_t line_bytes);

    /**
     * Look up @p line and allocate it on a miss; @p write marks the
     * installed/present line dirty.
     */
    CacheAccessResult access(std::uint64_t line, bool write);

    /**
     * Hit-only access: when @p line is present and the access
     * completes locally (any read, or a write to an already-dirty
     * copy), update recency/dirtiness/hit counters exactly as
     * access() would and return true. Otherwise (miss, or a write
     * needing an S->M upgrade) touch nothing and return false so the
     * caller can take the full coherence path.
     */
    bool accessIfPresent(std::uint64_t line, bool write);

    /** True when @p line is present. */
    bool contains(std::uint64_t line) const;

    /** Bits reserved for the way in a hit entry (assoc <= 16). */
    static constexpr int kWayBits = 4;

    /**
     * Read-only lookahead for the machine's stride probe, with the
     * geometry and the tag/metadata pointers copied out so a loop can
     * keep them in registers (its own stores cannot make the compiler
     * reload them). Valid until this cache is mutated by a fill,
     * eviction, coherence action, or flush; presence and dirtiness do
     * not depend on recency, so hits in between leave it valid. The
     * only thing it writes is a set's way hint (SetMeta::probe_way).
     */
    class HitProbe
    {
      public:
        /**
         * The hit entry (set << kWayBits | way) that commitHits()
         * replays for an access of @p line, when that access would be
         * a local one-cycle hit (present, and for a write already
         * dirty); otherwise kMiss. Checks the set's hinted way first:
         * warm L1s spread hits over every way, where a scan's exit
         * mispredicts.
         */
        std::uint32_t entry(std::uint64_t line, bool write) const
        {
            const std::uint64_t set = line & set_mask;
            const std::uint64_t *base = tags + set * ways;
            const SetMeta &m = meta[set];
            unsigned w = m.probe_way;
            if (base[w] != line || !((m.valid >> w) & 1u)) {
                for (w = 0; w < ways; ++w) {
                    if (base[w] == line && ((m.valid >> w) & 1u))
                        break;
                }
                if (w == ways)
                    return kMiss;
                m.probe_way = w;
            }
            if (write && !((m.dirty >> w) & 1u))
                return kMiss;
            return static_cast<std::uint32_t>((set << kWayBits) | w);
        }

        /** entry()'s "not a local hit" result (no valid entry). */
        static constexpr std::uint32_t kMiss = ~std::uint32_t(0);

      private:
        friend class Cache;

        const std::uint64_t *tags = nullptr;
        const SetMeta *meta = nullptr;
        std::uint64_t set_mask = 0;
        unsigned ways = 0;
    };

    /** The lookahead view of the current contents. */
    HitProbe hitProbe() const
    {
        HitProbe p;
        p.tags = tags.data();
        p.meta = meta.data();
        p.set_mask = sets - 1;
        p.ways = static_cast<unsigned>(ways);
        return p;
    }

    /**
     * Replay a batch of probed hits, each a HitProbe::entry():
     * exactly the recency and counter updates of hitting accesses.
     * The caller guarantees (via the stride probe) that each access
     * was a local hit at its nominal cycle and that no mutation has
     * intervened since.
     */
    void commitHits(const std::uint32_t *setway, std::size_t n)
    {
        for (std::size_t j = 0; j < n; ++j)
            touch(meta[setway[j] >> kWayBits],
                  static_cast<int>(setway[j] & ((1u << kWayBits) - 1)));
        counters.hits += n;
    }

    /**
     * Count @p n hits that repeat the latest commitHits() hit on the
     * same line, each a load or a store to a line found dirty. That
     * hit left its way MRU, so a repeat changes nothing but the hit
     * counter.
     */
    void countHits(std::uint64_t n) { counters.hits += n; }

    /** True when @p line is present and dirty. */
    bool isDirty(std::uint64_t line) const;

    /** Remove @p line if present; true when the line was dirty. */
    bool invalidate(std::uint64_t line);

    /** Clear a present line's dirty bit (coherence downgrade). */
    void markClean(std::uint64_t line);

    /** Invalidate everything (sprint start: "L1s initially empty"). */
    void flush();

    /** Number of sets. */
    std::size_t numSets() const { return sets; }

    /** Ways per set. */
    int associativity() const { return ways; }

    /** Total storage slots (sets * ways); slot ids index this range. */
    std::size_t numSlots() const { return tags.size(); }

    /** Storage slot of @p line, or kNoSlot when absent. */
    std::size_t findSlot(std::uint64_t line) const;

    /**
     * The slot access(line, _) would use, without mutating: the hit
     * way when present, otherwise the victim way (first invalid way,
     * else the LRU tail) the fill would displace. @p hit reports
     * which case applied.
     */
    std::size_t peekSlot(std::uint64_t line, bool &hit) const;

    /** True when @p slot holds a valid line. */
    bool validAt(std::size_t slot) const
    {
        return (meta[slot / static_cast<std::size_t>(ways)].valid >>
                (slot % static_cast<std::size_t>(ways))) &
               1u;
    }

    /** Line index stored at @p slot (meaningful only when valid). */
    std::uint64_t lineAt(std::size_t slot) const { return tags[slot]; }

    /** Number of currently valid lines. */
    std::size_t validLines() const;

    /** Event counters. */
    const CacheStats &stats() const { return counters; }

    /**
     * Zero the event counters without touching contents or recency.
     * Used by warm re-activation (Machine::warmStartFrom), where the
     * adopting machine must account only its own task's events.
     */
    void resetStats() { counters = CacheStats(); }

  private:
    friend struct CheckpointIO;

    /** Way holding @p line in @p set, or -1. */
    int findWay(std::size_t set, std::uint64_t line) const
    {
        const std::uint64_t *base = &tags[set * ways];
        const unsigned valid_ways = meta[set].valid;
        for (int w = 0; w < ways; ++w) {
            if (base[w] == line && ((valid_ways >> w) & 1u))
                return w;
        }
        return -1;
    }

    /** Move @p way's nibble to the front of the recency list. */
    void touch(SetMeta &m, int way)
    {
        const std::uint64_t order = m.order;
        // Position of the nibble equal to `way` (each way id appears
        // exactly once in the word, including the unused upper
        // nibbles of a narrow cache, so the scan always terminates).
        int p = 0;
        while (((order >> (4 * p)) & 0xF) !=
               static_cast<std::uint64_t>(way))
            ++p;
        const std::uint64_t below =
            order & ((std::uint64_t(1) << (4 * p)) - 1);
        const std::uint64_t above =
            p < 15 ? (order >> (4 * (p + 1))) << (4 * (p + 1)) : 0;
        m.order =
            above | (below << 4) | static_cast<std::uint64_t>(way);
    }

    std::size_t sets;
    int ways;
    std::vector<std::uint64_t> tags;  ///< sets * ways, row-major by set
    std::vector<SetMeta> meta;        ///< one packed word per set
    CacheStats counters;
};

} // namespace csprint

#endif // CSPRINT_ARCHSIM_CACHE_HH
