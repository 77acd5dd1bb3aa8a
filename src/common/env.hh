/**
 * @file
 * Environment-variable override helpers shared by the runner and the
 * bench harnesses (previously copy-pasted in both).
 *
 * A variable that is unset *or set to the empty string* yields the
 * fallback: an empty value means "not configured", never "zero". This
 * follows the PIPM_CHECK_INVARIANTS pattern established in the runner.
 */

#ifndef PIPM_COMMON_ENV_HH
#define PIPM_COMMON_ENV_HH

#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/logging.hh"

namespace pipm
{

/**
 * Numeric env override; unset/empty returns `fallback`. Any other value
 * must be a whole unsigned decimal number: "20k", "yes" or "-1" is
 * fatal, rather than silently read as 20, 0 or 2^64-1.
 */
inline std::uint64_t
envU64(const char *name, std::uint64_t fallback)
{
    const char *env = std::getenv(name);
    if (!env || *env == '\0')
        return fallback;
    const char *end = env + std::strlen(env);
    std::uint64_t value = 0;
    const auto [ptr, ec] = std::from_chars(env, end, value);
    if (ec != std::errc() || ptr != end)
        fatal(name, "='", env, "' is not an unsigned decimal number");
    return value;
}

/** String env override; unset/empty returns `fallback`. */
inline std::string
envStr(const char *name, std::string fallback)
{
    if (const char *env = std::getenv(name)) {
        if (*env != '\0')
            return env;
    }
    return fallback;
}

} // namespace pipm

#endif // PIPM_COMMON_ENV_HH
