/**
 * @file
 * Scratch directories for the tests and the bench reports: freshDir()
 * makes a new /tmp/csprint-<tag>-XXXXXX directory, and everything it
 * made is removed when the process that made it exits normally. A
 * header because CMake turns every test and bench source file into its
 * own executable; bench/report.hh includes it too.
 */

#ifndef CSPRINT_TESTS_FRESH_DIR_HH
#define CSPRINT_TESTS_FRESH_DIR_HH

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <system_error>
#include <vector>

#include <stdlib.h>
#include <unistd.h>

namespace csprint {

/** The scratch directories one process made; removed at its exit. */
struct FreshDirs
{
    pid_t owner = ::getpid();
    std::vector<std::string> made;

    ~FreshDirs()
    {
        // A forked child that exits normally leaves its parent's
        // directories alone.
        if (::getpid() != owner)
            return;
        for (const std::string &dir : made) {
            std::error_code ec;
            std::filesystem::remove_all(dir, ec);
        }
    }
};

/**
 * A new, empty /tmp/csprint-<tag>-XXXXXX directory, removed with its
 * contents when this process exits. Throws std::runtime_error when it
 * cannot be made.
 */
inline std::string
freshDir(const std::string &tag)
{
    static FreshDirs dirs;
    std::string path = "/tmp/csprint-" + tag + "-XXXXXX";
    if (::mkdtemp(path.data()) == nullptr)
        throw std::runtime_error("cannot create a scratch directory " +
                                 path + ": " + std::strerror(errno));
    dirs.made.push_back(path);
    return path;
}

} // namespace csprint

#endif // CSPRINT_TESTS_FRESH_DIR_HH
