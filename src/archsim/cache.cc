#include "archsim/cache.hh"

#include "common/logging.hh"

namespace csprint {

namespace {

/** Initial recency order: way i at nibble i (way 0 MRU ... LRU last). */
constexpr std::uint64_t kIdentityOrder = 0xFEDCBA9876543210ULL;

} // namespace

Cache::Cache(std::size_t size_bytes, int assoc, std::size_t line_bytes)
    : ways(assoc)
{
    SPRINT_ASSERT(assoc > 0 && assoc <= 16,
                  "associativity must be in [1, 16] (recency order is "
                  "a packed nibble list)");
    SPRINT_ASSERT(line_bytes > 0 && size_bytes >= line_bytes * assoc,
                  "cache too small for one set");
    sets = size_bytes / (line_bytes * static_cast<std::size_t>(assoc));
    SPRINT_ASSERT(sets > 0 && (sets & (sets - 1)) == 0,
                  "set count must be a power of two");
    tags.assign(sets * static_cast<std::size_t>(ways), 0);
    meta.assign(sets, SetMeta{kIdentityOrder, 0, 0, 0});
}

CacheAccessResult
Cache::access(std::uint64_t line, bool write)
{
    CacheAccessResult result;
    const std::size_t set = line & (sets - 1);
    SetMeta &m = meta[set];
    const int hit_way = findWay(set, line);
    if (hit_way >= 0) {
        touch(m, hit_way);
        m.dirty |= static_cast<std::uint16_t>(write) << hit_way;
        result.hit = true;
        result.slot = set * ways + static_cast<std::size_t>(hit_way);
        ++counters.hits;
        return result;
    }

    ++counters.misses;
    const unsigned full = (1u << ways) - 1u;
    const unsigned invalid = ~m.valid & full;
    int victim;
    if (invalid != 0) {
        // First invalid way in ascending order.
        victim = __builtin_ctz(invalid);
    } else {
        // True-LRU: the tail nibble of the recency list.
        victim = static_cast<int>((m.order >> (4 * (ways - 1))) & 0xF);
        result.evicted = true;
        result.evicted_line = tags[set * ways + victim];
        result.evicted_dirty = (m.dirty >> victim) & 1u;
        ++counters.evictions;
        if (result.evicted_dirty)
            ++counters.dirty_evictions;
    }
    tags[set * ways + victim] = line;
    m.valid |= 1u << victim;
    m.dirty = static_cast<std::uint16_t>(
        (m.dirty & ~(1u << victim)) |
        (static_cast<unsigned>(write) << victim));
    touch(m, victim);
    result.slot = set * ways + static_cast<std::size_t>(victim);
    return result;
}

bool
Cache::accessIfPresent(std::uint64_t line, bool write)
{
    const std::size_t set = line & (sets - 1);
    SetMeta &m = meta[set];
    const int way = findWay(set, line);
    if (way < 0)
        return false;
    if (write && !((m.dirty >> way) & 1u))
        return false;  // S -> M upgrade: full coherence path
    touch(m, way);
    ++counters.hits;
    return true;
}

bool
Cache::contains(std::uint64_t line) const
{
    return findWay(line & (sets - 1), line) >= 0;
}

bool
Cache::isDirty(std::uint64_t line) const
{
    const std::size_t set = line & (sets - 1);
    const int way = findWay(set, line);
    return way >= 0 && ((meta[set].dirty >> way) & 1u);
}

std::size_t
Cache::peekSlot(std::uint64_t line, bool &hit) const
{
    const std::size_t set = line & (sets - 1);
    const int way = findWay(set, line);
    if (way >= 0) {
        hit = true;
        return set * ways + static_cast<std::size_t>(way);
    }
    hit = false;
    const SetMeta &m = meta[set];
    const unsigned full = (1u << ways) - 1u;
    const unsigned invalid = ~m.valid & full;
    const int victim =
        invalid != 0
            ? __builtin_ctz(invalid)
            : static_cast<int>((m.order >> (4 * (ways - 1))) & 0xF);
    return set * ways + static_cast<std::size_t>(victim);
}

std::size_t
Cache::findSlot(std::uint64_t line) const
{
    const std::size_t set = line & (sets - 1);
    const int way = findWay(set, line);
    return way >= 0 ? set * ways + static_cast<std::size_t>(way)
                    : kNoSlot;
}

bool
Cache::invalidate(std::uint64_t line)
{
    const std::size_t set = line & (sets - 1);
    const int way = findWay(set, line);
    if (way < 0)
        return false;
    SetMeta &m = meta[set];
    const bool dirty = (m.dirty >> way) & 1u;
    m.valid = static_cast<std::uint16_t>(m.valid & ~(1u << way));
    m.dirty = static_cast<std::uint16_t>(m.dirty & ~(1u << way));
    ++counters.invalidations;
    return dirty;
}

void
Cache::markClean(std::uint64_t line)
{
    const std::size_t set = line & (sets - 1);
    const int way = findWay(set, line);
    if (way >= 0)
        meta[set].dirty =
            static_cast<std::uint16_t>(meta[set].dirty & ~(1u << way));
}

void
Cache::flush()
{
    for (auto &m : meta) {
        m.valid = 0;
        m.dirty = 0;
    }
}

std::size_t
Cache::validLines() const
{
    std::size_t n = 0;
    for (const auto &m : meta)
        n += static_cast<std::size_t>(__builtin_popcount(m.valid));
    return n;
}

} // namespace csprint
