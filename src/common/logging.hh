/**
 * @file
 * gem5-style status and error reporting: panic() for simulator bugs,
 * fatal() for user/configuration errors, warn()/inform() for status.
 */

#ifndef PIPM_COMMON_LOGGING_HH
#define PIPM_COMMON_LOGGING_HH

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>

namespace pipm
{

namespace detail
{

/** Concatenate any streamable arguments into one string. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream os;
    (os << ... << args);
    return os.str();
}

[[noreturn]] void panicImpl(const char *file, int line, const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line, const std::string &msg);
void warnImpl(const std::string &msg);
void informImpl(const std::string &msg);

/** When set, panic/fatal throw instead of aborting (see
 *  ThrowOnErrorScope). */
extern bool throwOnError;

} // namespace detail

/** Thrown instead of aborting inside a ThrowOnErrorScope. */
struct SimError
{
    std::string message;
};

/**
 * While alive, panic()/fatal() throw SimError instead of exiting. The
 * destructor restores the previous setting, so scopes nest and an early
 * return or a failed test assertion cannot leak the flag.
 */
class ThrowOnErrorScope
{
  public:
    ThrowOnErrorScope() : saved_(detail::throwOnError)
    {
        detail::throwOnError = true;
    }
    ~ThrowOnErrorScope() { detail::throwOnError = saved_; }

    ThrowOnErrorScope(const ThrowOnErrorScope &) = delete;
    ThrowOnErrorScope &operator=(const ThrowOnErrorScope &) = delete;

  private:
    bool saved_;
};

/** Call for conditions that indicate a simulator bug. Never returns. */
#define panic(...) \
    ::pipm::detail::panicImpl(__FILE__, __LINE__, \
                              ::pipm::detail::concat(__VA_ARGS__))

/** Call for user-caused errors (bad configuration etc.). Never returns. */
#define fatal(...) \
    ::pipm::detail::fatalImpl(__FILE__, __LINE__, \
                              ::pipm::detail::concat(__VA_ARGS__))

/** panic() if a simulator invariant does not hold. */
#define panic_if(cond, ...) \
    do { \
        if (cond) \
            panic("assertion '" #cond "' failed: ", \
                  ::pipm::detail::concat(__VA_ARGS__)); \
    } while (0)

/** fatal() if a user-facing precondition does not hold. */
#define fatal_if(cond, ...) \
    do { \
        if (cond) \
            fatal(::pipm::detail::concat(__VA_ARGS__)); \
    } while (0)

template <typename... Args>
void
warn(Args &&...args)
{
    detail::warnImpl(detail::concat(std::forward<Args>(args)...));
}

template <typename... Args>
void
inform(Args &&...args)
{
    detail::informImpl(detail::concat(std::forward<Args>(args)...));
}

} // namespace pipm

#endif // PIPM_COMMON_LOGGING_HH
