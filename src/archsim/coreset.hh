/**
 * @file
 * A dense bitset over core ids, sized at construction for the
 * machine's core count. Replaces the fixed 64-bit sharer/mutation
 * masks that capped the machine at 64 cores: the directory and the
 * event loop exchange core sets through this type, so the same code
 * paths serve a 4-core phone chip and a 1024-core dark-silicon sweep.
 *
 * Iteration (forEach) visits cores in ascending id order — the same
 * order __builtin_ctzll produced over the old masks — which the event
 * loop's commit logic relies on for its deterministic core-id-major
 * ordering at equal cycle.
 */

#ifndef CSPRINT_ARCHSIM_CORESET_HH
#define CSPRINT_ARCHSIM_CORESET_HH

#include <cstdint>
#include <vector>

namespace csprint {

class CoreSet
{
  public:
    CoreSet() = default;
    explicit CoreSet(int num_cores) { resize(num_cores); }

    /** Size for @p num_cores ids and clear. */
    void resize(int num_cores)
    {
        words.assign(static_cast<std::size_t>((num_cores + 63) / 64), 0);
        n = num_cores;
    }

    /** Remove every member (capacity unchanged). */
    void clear()
    {
        for (auto &w : words)
            w = 0;
    }

    void add(int c) { words[idx(c)] |= bit(c); }
    void remove(int c) { words[idx(c)] &= ~bit(c); }
    bool contains(int c) const { return (words[idx(c)] & bit(c)) != 0; }

    bool empty() const
    {
        for (const auto &w : words) {
            if (w != 0)
                return false;
        }
        return true;
    }

    int count() const
    {
        int total = 0;
        for (const auto &w : words)
            total += __builtin_popcountll(w);
        return total;
    }

    /** Largest id the set can hold members below. */
    int capacity() const { return n; }

    /** Backing word @p w: core c is bit c % 64 of word c / 64. */
    std::uint64_t word(std::size_t w) const { return words[w]; }

    /** Invoke @p fn(core_id) for each member in ascending id order. */
    template <typename Fn>
    void forEach(Fn &&fn) const
    {
        for (std::size_t w = 0; w < words.size(); ++w) {
            std::uint64_t bits = words[w];
            while (bits) {
                fn(static_cast<int>(w * 64) + __builtin_ctzll(bits));
                bits &= bits - 1;
            }
        }
    }

  private:
    static std::size_t idx(int c)
    {
        return static_cast<std::size_t>(c) >> 6;
    }
    static std::uint64_t bit(int c)
    {
        return std::uint64_t(1) << (c & 63);
    }

    std::vector<std::uint64_t> words;
    int n = 0;
};

} // namespace csprint

#endif // CSPRINT_ARCHSIM_CORESET_HH
