#include "sim/wall_timer.hh"

#include <chrono>

namespace ehpsim
{

namespace
{

long long
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // anonymous namespace

WallTimer::WallTimer()
    : start_ns_(nowNs())
{
}

double
WallTimer::seconds() const
{
    return static_cast<double>(nowNs() - start_ns_) * 1e-9;
}

} // namespace ehpsim
