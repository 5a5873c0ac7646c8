#include "sim/logging.hh"

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace ehpsim
{
namespace logging_detail
{

namespace
{
// Atomic so warn() is safe from concurrent sweep workers.
std::atomic<std::uint64_t> warn_count{0};
std::atomic<bool> quiet{false};
} // anonymous namespace

void
panicImpl(const std::string &msg, const char *file, int line)
{
    std::fprintf(stderr, "panic: %s (%s:%d)\n", msg.c_str(), file, line);
    std::abort();
}

void
fatalImpl(const std::string &msg, const char *file, int line)
{
    std::fprintf(stderr, "fatal: %s (%s:%d)\n", msg.c_str(), file, line);
    // Throw instead of exit(1) so that library users (and tests) can
    // intercept configuration errors; uncaught it still terminates.
    throw std::runtime_error("fatal: " + msg);
}

void
warnImpl(const std::string &msg)
{
    warn_count.fetch_add(1, std::memory_order_relaxed);
    if (!quiet.load(std::memory_order_relaxed))
        std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

std::uint64_t
warnCount()
{
    return warn_count;
}

void
setQuiet(bool q)
{
    quiet = q;
}

} // namespace logging_detail
} // namespace ehpsim
