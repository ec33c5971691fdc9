#include "common/logging.hh"

#include <cstdio>
#include <cstdlib>

namespace csprint {

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "fatal: %s (%s:%d)\n", msg.c_str(), file, line);
    std::exit(1);
}

void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "panic: %s (%s:%d)\n", msg.c_str(), file, line);
    std::abort();
}

void
warnImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "warn: %s (%s:%d)\n", msg.c_str(), file, line);
}

} // namespace csprint
