/**
 * @file
 * Parsing of user-supplied numbers (command-line options, environment).
 */

#ifndef MEMFWD_COMMON_PARSE_HH
#define MEMFWD_COMMON_PARSE_HH

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
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

/** @p text as a decimal or 0x-prefixed hex integer that fits in @p T;
 *  nullopt for anything else (empty text, a sign or leading space,
 *  trailing junk, or a value too large for @p T). */
template <typename T = std::uint64_t>
std::optional<T>
parseUnsigned(const char *text)
{
    if (!std::isdigit(static_cast<unsigned char>(text[0])))
        return std::nullopt;
    const bool hex = text[0] == '0' && (text[1] == 'x' || text[1] == 'X');
    char *end = nullptr;
    errno = 0;
    const unsigned long long value = std::strtoull(text, &end, hex ? 16 : 10);
    if (*end != '\0' || errno == ERANGE ||
        value > std::numeric_limits<T>::max())
        return std::nullopt;
    return static_cast<T>(value);
}

} // namespace memfwd

#endif // MEMFWD_COMMON_PARSE_HH
