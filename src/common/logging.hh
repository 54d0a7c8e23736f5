/**
 * @file
 * Error-reporting helpers in the gem5 tradition.
 *
 * panic()  — an internal simulator invariant was violated (a memfwd bug);
 *            aborts so a debugger or core dump can catch it.
 * fatal()  — the simulation cannot continue because of a user error
 *            (bad configuration, invalid workload parameters); exits.
 * warn()   — something is suspicious but the simulation proceeds.
 */

#ifndef MEMFWD_COMMON_LOGGING_HH
#define MEMFWD_COMMON_LOGGING_HH

#include <cstdio>
#include <cstdlib>
#include <string>

namespace memfwd
{

[[noreturn]] void panicImpl(const char *file, int line, const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line, const std::string &msg);
void warnImpl(const std::string &msg);

/** printf-style formatting into a std::string. */
std::string strfmt(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Enable/disable warn() output (tests silence it). */
void setVerbose(bool verbose);
bool verbose();

} // namespace memfwd

#define memfwd_panic(...) \
    ::memfwd::panicImpl(__FILE__, __LINE__, ::memfwd::strfmt(__VA_ARGS__))
#define memfwd_fatal(...) \
    ::memfwd::fatalImpl(__FILE__, __LINE__, ::memfwd::strfmt(__VA_ARGS__))
/** Formats only when warnings are on: a silenced warn() costs a call. */
#define memfwd_warn(...)                                                    \
    do {                                                                    \
        if (::memfwd::verbose())                                            \
            ::memfwd::warnImpl(::memfwd::strfmt(__VA_ARGS__));              \
    } while (0)

/** panic() unless the invariant holds. */
#define memfwd_assert(cond, ...)                                            \
    do {                                                                    \
        if (!(cond)) {                                                      \
            ::memfwd::panicImpl(__FILE__, __LINE__,                         \
                std::string("assertion failed: " #cond " — ") +             \
                ::memfwd::strfmt(__VA_ARGS__));                             \
        }                                                                   \
    } while (0)

#endif // MEMFWD_COMMON_LOGGING_HH
