/**
 * @file
 * Parsing of user-supplied numbers (command-line options, environment).
 */

#ifndef MEMFWD_COMMON_PARSE_HH
#define MEMFWD_COMMON_PARSE_HH

#include <cmath>
#include <cstdlib>
#include <optional>

namespace memfwd
{

/** @p text as a finite number > 0; nullopt for anything else (empty
 *  text, trailing junk, inf, nan, zero or a negative number). */
inline std::optional<double>
parsePositive(const char *text)
{
    char *end = nullptr;
    const double value = std::strtod(text, &end);
    if (*end != '\0' || !std::isfinite(value) || value <= 0.0)
        return std::nullopt;
    return value;
}

} // namespace memfwd

#endif // MEMFWD_COMMON_PARSE_HH
