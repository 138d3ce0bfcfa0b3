#include "tytra/support/strings.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace tytra {

std::string_view trim(std::string_view s) {
  std::size_t begin = 0;
  std::size_t end = s.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(s[begin])) != 0) ++begin;
  while (end > begin && std::isspace(static_cast<unsigned char>(s[end - 1])) != 0) --end;
  return s.substr(begin, end - begin);
}

std::vector<std::string_view> split(std::string_view s, char sep) {
  std::vector<std::string_view> parts;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      parts.push_back(s.substr(start));
      break;
    }
    parts.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return parts;
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() && s.substr(s.size() - suffix.size()) == suffix;
}

std::string to_lower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

std::string format_si(double value, int precision) {
  static constexpr const char* kSuffixes[] = {"", "K", "M", "G", "T", "P"};
  int mag = 0;
  double v = value;
  while (std::abs(v) >= 1000.0 && mag < 5) {
    v /= 1000.0;
    ++mag;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f %s", precision, v, kSuffixes[mag]);
  return buf;
}

std::string pad_left(std::string_view s, std::size_t width) {
  if (s.size() >= width) return std::string(s);
  return std::string(width - s.size(), ' ') + std::string(s);
}

std::string pad_right(std::string_view s, std::size_t width) {
  if (s.size() >= width) return std::string(s);
  return std::string(s) + std::string(width - s.size(), ' ');
}

std::string format_fixed(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  return buf;
}

std::string format_general(double value, int precision) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, value,
                               std::chars_format::general, precision);
  return {buf, r.ptr};
}

}  // namespace tytra
