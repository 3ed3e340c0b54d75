/**
 * @file
 * Error/status reporting helpers in the gem5 spirit.
 *
 * panic()  — an internal invariant was violated (a memtherm bug); aborts.
 * fatal()  — the simulation cannot continue due to user input; exits(1).
 * warn()   — something is suspicious but the run continues.
 * inform() — plain status output.
 */

#ifndef MEMTHERM_COMMON_LOGGING_HH
#define MEMTHERM_COMMON_LOGGING_HH

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <source_location>
#include <stdexcept>
#include <string>
#include <string_view>

namespace memtherm
{

/** Exception thrown by fatal() so tests can catch misconfiguration. */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &msg) : std::runtime_error(msg) {}
};

/** Exception thrown by panic() so tests can assert on invariant checks. */
class PanicError : public std::logic_error
{
  public:
    explicit PanicError(const std::string &msg) : std::logic_error(msg) {}
};

/**
 * Report an internal invariant violation. Throws PanicError; callers are
 * not expected to recover (tests may catch it).
 */
[[noreturn]] inline void
panic(const std::string &msg,
      std::source_location loc = std::source_location::current())
{
    throw PanicError("panic: " + msg + " [" + loc.file_name() + ":" +
                     std::to_string(loc.line()) + "]");
}

/** Report an unrecoverable user/configuration error. */
[[noreturn]] inline void
fatal(const std::string &msg)
{
    throw FatalError("fatal: " + msg);
}

/** Re-raise a nested reader's error @p e as "<where>: <what>". */
[[noreturn]] inline void
fatal(const std::string &where, const FatalError &e)
{
    fatal(where + ": " + std::string(e.what()).substr(7));
}

/** Report a suspicious-but-survivable condition to stderr. */
inline void
warn(std::string_view msg)
{
    std::cerr << "warn: " << msg << '\n';
}

/** Report normal operating status to stdout. */
inline void
inform(std::string_view msg)
{
    std::cout << "info: " << msg << '\n';
}

/**
 * panic() unless the condition holds. The message is a C string (in
 * practice a literal) and becomes a std::string only inside the failing
 * branch, so a passing check never touches the heap: the simulator's
 * window loop runs dozens of these per window. A message that has to
 * be computed does not fit here; write `if (!cond) panic(...)`.
 */
inline void
panicIfNot(bool cond, const char *msg,
           std::source_location loc = std::source_location::current())
{
    if (!cond) [[unlikely]]
        panic(msg, loc);
}

} // namespace memtherm

#endif // MEMTHERM_COMMON_LOGGING_HH
