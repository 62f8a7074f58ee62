#ifndef GRAPHITI_SUPPORT_STRINGS_HPP
#define GRAPHITI_SUPPORT_STRINGS_HPP

/**
 * @file
 * Small string utilities shared by the dot parser, the pretty
 * printers and the command-line tools.
 */

#include <charconv>
#include <cmath>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace graphiti {

/** Split @p input on @p sep, keeping empty fields. */
std::vector<std::string> split(std::string_view input, char sep);

/** Strip ASCII whitespace from both ends. */
std::string trim(std::string_view input);

/** True when @p input starts with @p prefix. */
bool startsWith(std::string_view input, std::string_view prefix);

/** Join @p parts with @p sep. */
std::string join(const std::vector<std::string>& parts,
                 std::string_view sep);

/**
 * Parse all of @p text as a non-negative @p T (an unsigned integer or
 * a floating type) with std::from_chars. No sign, no whitespace, no
 * trailing bytes, no overflow and, for floating types, no inf or nan:
 * anything else is nullopt, never a silent 0 or a wrapped value.
 */
template <typename T>
std::optional<T>
parseNumber(std::string_view text)
{
    static_assert(std::is_unsigned_v<T> || std::is_floating_point_v<T>);
    T value{};
    const char* end = text.data() + text.size();
    if (text.empty() || text.front() == '-')
        return std::nullopt;
    auto [stop, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc{} || stop != end)
        return std::nullopt;
    if constexpr (std::is_floating_point_v<T>)
        if (!std::isfinite(value))
            return std::nullopt;
    return value;
}

}  // namespace graphiti

#endif  // GRAPHITI_SUPPORT_STRINGS_HPP
