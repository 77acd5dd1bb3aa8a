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
#include <optional>
#include <string>
#include <string_view>

#include "common/logging.hh"

namespace pipm
{

/**
 * `text` as a whole unsigned decimal number, or nullopt: "", "20k",
 * "yes", "-1" and values past 2^64-1 are rejected rather than read as
 * 20, 0 or 2^64-1. The one number rule of env knobs and CLI arguments.
 */
inline std::optional<std::uint64_t>
parseU64(std::string_view text)
{
    const char *end = text.data() + text.size();
    std::uint64_t value = 0;
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc() || ptr != end)
        return std::nullopt;
    return value;
}

/**
 * Numeric env override; unset/empty returns `fallback`. Any other value
 * must pass parseU64, or the run is fatal.
 */
inline std::uint64_t
envU64(const char *name, std::uint64_t fallback)
{
    const char *env = std::getenv(name);
    if (!env || *env == '\0')
        return fallback;
    const auto value = parseU64(env);
    if (!value)
        fatal(name, "='", env, "' is not an unsigned decimal number");
    return *value;
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
