/**
 * @file
 * gem5-style status and error reporting helpers.
 *
 * panic() is for simulator bugs (aborts); fatal() is for user/config
 * errors (clean exit); warn() reports a condition without stopping
 * the simulation.
 */

#ifndef EHPSIM_SIM_LOGGING_HH
#define EHPSIM_SIM_LOGGING_HH

#include <sstream>
#include <string>

namespace ehpsim
{

namespace logging_detail
{

/** Concatenate a parameter pack into one message string. */
template <typename... Args>
std::string
concat(Args&&... args)
{
    std::ostringstream oss;
    (oss << ... << args);
    return oss.str();
}

[[noreturn]] void panicImpl(const std::string &msg, const char *file,
                            int line);
[[noreturn]] void fatalImpl(const std::string &msg, const char *file,
                            int line);
void warnImpl(const std::string &msg);

/** Number of warn() calls so far (used by tests). */
std::uint64_t warnCount();

/** Suppress or re-enable warn console output (used by tests). */
void setQuiet(bool quiet);

} // namespace logging_detail

/** Abort: something happened that indicates an ehpsim bug. */
template <typename... Args>
[[noreturn]] void
panic(Args&&... args)
{
    logging_detail::panicImpl(
        logging_detail::concat(std::forward<Args>(args)...),
        __builtin_FILE(), __builtin_LINE());
}

/** Exit cleanly: the user supplied an invalid configuration. */
template <typename... Args>
[[noreturn]] void
fatal(Args&&... args)
{
    logging_detail::fatalImpl(
        logging_detail::concat(std::forward<Args>(args)...),
        __builtin_FILE(), __builtin_LINE());
}

/** Report a suspicious but non-fatal condition. */
template <typename... Args>
void
warn(Args&&... args)
{
    logging_detail::warnImpl(
        logging_detail::concat(std::forward<Args>(args)...));
}

} // namespace ehpsim

#endif // EHPSIM_SIM_LOGGING_HH
