/**
 * @file
 * Peak resident set size of the calling process, shared by the
 * bench reports' memory gates.
 *
 * Reads VmHWM from /proc/self/status: it is kept per address space
 * and starts over at exec, so a re-exec'd probe child measures only
 * itself. getrusage(RUSAGE_SELF).ru_maxrss is not usable for that:
 * Linux carries it across exec, so a child started through popen
 * would report at least its launcher's RSS at fork.
 */

#ifndef CSPRINT_BENCH_PEAK_RSS_HH
#define CSPRINT_BENCH_PEAK_RSS_HH

#include <fstream>
#include <string>

namespace csprint {

/** Peak RSS (VmHWM) in KB, or -1 when /proc is unavailable. */
inline long
peakRssKb()
{
    std::ifstream status("/proc/self/status");
    std::string key;
    while (status >> key) {
        if (key == "VmHWM:") {
            long kb = -1;
            status >> kb;
            return kb;
        }
        status.ignore(4096, '\n');
    }
    return -1;
}

} // namespace csprint

#endif // CSPRINT_BENCH_PEAK_RSS_HH
