/**
 * @file
 * Shared, inclusive last-level cache with a co-located directory
 * implementing invalidation-based coherence (paper Section 8.1: "a
 * standard invalidation-based cache coherence protocol with the
 * directory co-located with the last-level cache").
 *
 * On a write, all other sharers' L1 copies are invalidated; on a read
 * of a line another core holds dirty, the owner is downgraded and its
 * L1 copy marked clean. Inclusion is enforced: an L2 eviction recalls
 * the line from every L1 that holds it.
 *
 * The directory is stored as a flat array parallel to the tag store
 * (one entry per tag slot), so a directory lookup is the slot index
 * returned by the tag access — no per-line hashed container on the hot
 * path. Inclusion guarantees the invariant that a line has directory
 * state iff it is resident in the L2 tags.
 *
 * Sharer sets use a limited-pointer representation (the Graphite
 * sparse-directory scheme): each entry holds up to kInlineSharers core
 * ids inline, covering the overwhelmingly common few-sharers case in
 * 16 bytes regardless of machine width. An entry that gains more
 * sharers spills to a full bitset block in a per-L2 overflow pool
 * sized for the core count, so the machine scales past the old 64-bit
 * bitmask cap to 1024+ cores. DirectoryKind::FullMap forces every
 * entry onto the bitset path and serves as the differential baseline
 * for the spill machinery (tests/differential_test.cc holds the two
 * representations bit-identical).
 *
 * Deactivating cores (sprint-exhaustion consolidation, a narrowing
 * warm start) costs one walk of the directory for the whole set of
 * dropped cores, not one per core: an entry with no dropped sharer is
 * passed over after one check — a range test on the sorted inline
 * list, or an AND of the overflow block with the dropped set.
 */

#ifndef CSPRINT_ARCHSIM_L2_HH
#define CSPRINT_ARCHSIM_L2_HH

#include <array>
#include <cstdint>
#include <vector>

#include "archsim/cache.hh"
#include "archsim/coreset.hh"
#include "archsim/memory.hh"
#include "common/units.hh"

namespace csprint {

/** Directory sharer-set representation. */
enum class DirectoryKind : unsigned char
{
    Sparse,   ///< limited pointers, spill to a bitset (production)
    FullMap,  ///< every entry a full bitset (differential baseline)
};

/** Shared-L2 configuration (paper defaults). */
struct L2Config
{
    std::size_t size_bytes = 4 * 1024 * 1024;
    int assoc = 16;
    std::size_t line_bytes = 64;
    Cycles hit_latency = 20;
    Cycles coherence_penalty = 20;  ///< extra cycles to reach remote L1s
    DirectoryKind directory = DirectoryKind::Sparse;
};

/** Coherence/LLC event counters. */
struct L2Stats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t invalidations_sent = 0;
    std::uint64_t downgrades_sent = 0;
    std::uint64_t inclusion_recalls = 0;
    std::uint64_t writebacks_received = 0;
    std::uint64_t directory_spills = 0;  ///< inline -> bitset promotions
};

/**
 * The shared L2 plus directory. L1 caches are owned by the machine
 * and passed in so the directory can act on them directly.
 */
class SharedL2
{
  public:
    /** Sharer ids held inline before an entry spills to a bitset. */
    static constexpr int kInlineSharers = 4;

    SharedL2(const L2Config &cfg, MemorySystem &memory, int num_cores);

    /**
     * Core @p requester accesses @p line (read or write) at @p now.
     * Returns the access latency in cycles and performs all coherence
     * side effects on @p l1s.
     */
    Cycles access(std::uint64_t line, bool write, int requester,
                  Cycles now, std::vector<Cache> &l1s);

    /**
     * Core @p from writes back a dirty L1 victim. No core stall is
     * modelled, but the L2 copy is marked dirty (or forwarded to
     * memory if the line has already left the L2).
     */
    void writebackFromL1(std::uint64_t line, int from, Cycles now);

    /**
     * Deactivate every core in @p drop (capacity numCores()) in one
     * directory pass: each dropped core's L1 copies are invalidated
     * (a dirty copy marks the L2 line dirty), the core leaves every
     * sharer set and dirty-owner field, it is recorded as an L1
     * mutation, and its L1 is flushed. Effects of different cores on
     * one entry commute, so the result equals dropping the members
     * one at a time in any order.
     */
    void dropCores(const CoreSet &drop, std::vector<Cache> &l1s);

    /**
     * Fill @p out with the cores whose L1s an access(line, write,
     * requester) call would mutate, computed without side effects:
     * sharers to be invalidated on a write, a remote dirty owner to be
     * downgraded on a read, and every sharer of the tag victim an L2
     * miss would recall. The machine commits those cores' deferred
     * local runs before issuing the access, so replayed ops never see
     * post-mutation state. @p out may include @p requester on the miss
     * path (the victim's sharers); callers skip it.
     */
    void peekL1Targets(std::uint64_t line, bool write, int requester,
                       CoreSet &out) const;

    /**
     * Fill @p out with the cores whose L1 contents this L2 has
     * mutated (invalidations, downgrades, inclusion recalls, dropCores)
     * since the last call, then clear the pending set. The machine's
     * event loop uses it to invalidate cached stride probes precisely.
     */
    void takeL1Mutations(CoreSet &out)
    {
        out = l1_mutations;
        l1_mutations.clear();
    }

    /** Event counters. */
    const L2Stats &stats() const { return counters; }

    /** Configuration in use. */
    const L2Config &config() const { return cfg; }

    /** Core count the directory was sized for. */
    int numCores() const { return num_cores; }

    /** Sharer count of @p line's entry (0 when absent); test hook. */
    int sharerCount(std::uint64_t line) const;

    /**
     * Adopt the tag and directory state of @p prev (identical cache
     * geometry and directory kind required), modelling a re-activation
     * where the LLC contents survived across tasks. Core counts may
     * differ: overflow bitsets are re-packed to this directory's
     * width, and @p prev must hold no sharer at or beyond this
     * machine's core count (Machine::warmStartFrom drops them first).
     * This L2 keeps its own memory-system binding and starts with
     * fresh event counters and no pending L1 mutations; @p prev must
     * not be used afterwards.
     */
    void adoptState(SharedL2 &&prev);

  private:
    friend struct CheckpointIO;

    /**
     * One directory entry, parallel to a tag slot. Sixteen bytes in
     * both representations: the inline form lists up to kInlineSharers
     * sharer ids in ascending order in ptr[0, nptr); the overflow form
     * (overflow set, nptr unused) keys a words_per_block bitset at
     * pool[ovf * words_per_block].
     */
    struct DirEntry
    {
        std::array<std::int16_t, kInlineSharers> ptr{};
        std::int16_t dirty_owner = -1;  ///< core with a dirty L1 copy
        std::uint8_t nptr = 0;          ///< valid inline pointers
        bool overflow = false;          ///< sharers live in the pool
        bool l2_dirty = false;          ///< L2 copy newer than memory
        std::uint32_t ovf = 0;          ///< overflow block index
    };

    bool hasSharer(const DirEntry &entry, int core) const;
    void addSharer(DirEntry &entry, int core);
    void removeSharer(DirEntry &entry, int core);
    /** Release the entry's sharers (and overflow block, if any). */
    void clearSharers(DirEntry &entry);
    /** Reset the whole entry for a fresh install. */
    void clearEntry(DirEntry &entry);
    /** Promote an inline entry to an overflow bitset block. */
    void spill(DirEntry &entry);
    std::uint32_t allocBlock();

    /** Invoke @p fn(core_id) per sharer in ascending core-id order. */
    template <typename Fn>
    void forEachSharer(const DirEntry &entry, Fn &&fn) const
    {
        if (!entry.overflow) {
            for (int i = 0; i < entry.nptr; ++i)
                fn(static_cast<int>(entry.ptr[i]));
            return;
        }
        const std::uint64_t *words =
            &pool[static_cast<std::size_t>(entry.ovf) * words_per_block];
        for (std::size_t w = 0; w < words_per_block; ++w) {
            std::uint64_t bits = words[w];
            while (bits) {
                fn(static_cast<int>(w * 64) + __builtin_ctzll(bits));
                bits &= bits - 1;
            }
        }
    }

    void evictRecall(std::uint64_t line, const DirEntry &victim,
                     Cycles now, std::vector<Cache> &l1s);

    L2Config cfg;
    MemorySystem &memory;
    int num_cores;
    std::size_t words_per_block;  ///< 64-bit words per overflow bitset
    Cache tags;
    std::vector<DirEntry> dir;  ///< parallel to the tag slots
    std::vector<std::uint64_t> pool;       ///< overflow bitset storage
    std::vector<std::uint32_t> pool_free;  ///< recycled block indices
    CoreSet l1_mutations;  ///< cores with externally-changed L1s
    L2Stats counters;
};

} // namespace csprint

#endif // CSPRINT_ARCHSIM_L2_HH
