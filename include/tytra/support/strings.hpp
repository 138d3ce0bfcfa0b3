#pragma once

// Small string utilities shared by the IR lexer/parser, the .tgt target
// parser and report formatting.

#include <string>
#include <string_view>
#include <vector>

namespace tytra {

[[nodiscard]] std::string_view trim(std::string_view s);
[[nodiscard]] std::vector<std::string_view> split(std::string_view s, char sep);
[[nodiscard]] bool starts_with(std::string_view s, std::string_view prefix);
[[nodiscard]] bool ends_with(std::string_view s, std::string_view suffix);
[[nodiscard]] std::string to_lower(std::string_view s);

/// Formats a value with SI magnitude suffix, e.g. 1.5e9 -> "1.50 G".
[[nodiscard]] std::string format_si(double value, int precision = 2);

/// Formats n right-aligned in a field of the given width.
[[nodiscard]] std::string pad_left(std::string_view s, std::size_t width);
[[nodiscard]] std::string pad_right(std::string_view s, std::size_t width);

/// fixed-precision double formatting ("%.*f").
[[nodiscard]] std::string format_fixed(double value, int precision);

/// General double formatting ("%.*g"); precision 6 is what an ostream
/// prints by default.
[[nodiscard]] std::string format_general(double value, int precision);

}  // namespace tytra
