/**
 * @file
 * The seed the randomized differential pairs draw from: CI rotates it
 * through CSPRINT_DIFF_SEED so coverage accumulates across runs, and
 * it is logged once per process so any failure reproduces from the
 * printed value. A header because CMake turns every test source file
 * into its own executable.
 */

#ifndef CSPRINT_TESTS_DIFF_SEED_HH
#define CSPRINT_TESTS_DIFF_SEED_HH

#include <cstdint>
#include <iostream>

#include "common/args.hh"

namespace csprint {

/** CI-rotated master seed; logged so failures are reproducible. */
inline std::uint64_t
diffSeed()
{
    static const std::uint64_t seed = [] {
        const std::uint64_t s = envSeed("CSPRINT_DIFF_SEED", 20260730ULL);
        std::cout << "[ diff-seed ] CSPRINT_DIFF_SEED=" << s << "\n";
        return s;
    }();
    return seed;
}

} // namespace csprint

#endif // CSPRINT_TESTS_DIFF_SEED_HH
