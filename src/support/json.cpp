#include "tytra/support/json.hpp"

#include <charconv>
#include <cmath>
#include <utility>

namespace tytra::json {

namespace {

/// Nesting bound: a frame of 64 consecutive '[' is already a malformed
/// client, and the recursive parser must not let one size its stack.
constexpr int kMaxDepth = 64;

struct Parser {
  std::string_view text;
  std::size_t pos{0};
  std::string error;

  [[nodiscard]] bool at_end() const { return pos >= text.size(); }
  [[nodiscard]] char peek() const { return text[pos]; }

  void skip_ws() {
    while (!at_end()) {
      const char c = text[pos];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos;
    }
  }

  bool fail(const std::string& what) {
    if (error.empty()) {
      error = what + " at byte " + std::to_string(pos);
    }
    return false;
  }

  bool consume(char c, const char* what) {
    skip_ws();
    if (at_end() || text[pos] != c) return fail(std::string("expected ") + what);
    ++pos;
    return true;
  }

  bool literal(std::string_view word) {
    if (text.compare(pos, word.size(), word) != 0) {
      return fail("invalid literal");
    }
    pos += word.size();
    return true;
  }

  /// Appends `cp` to `out` as UTF-8 (cp is already validated <= 0x10FFFF).
  static void append_utf8(std::string& out, std::uint32_t cp) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  bool hex4(std::uint32_t& out) {
    if (pos + 4 > text.size()) return fail("truncated \\u escape");
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text[pos + static_cast<std::size_t>(i)];
      v <<= 4;
      if (c >= '0' && c <= '9') v |= static_cast<std::uint32_t>(c - '0');
      else if (c >= 'a' && c <= 'f') v |= static_cast<std::uint32_t>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') v |= static_cast<std::uint32_t>(c - 'A' + 10);
      else return fail("invalid \\u escape");
    }
    pos += 4;
    out = v;
    return true;
  }

  bool parse_string(std::string& out) {
    if (!consume('"', "'\"'")) return false;
    out.clear();
    for (;;) {
      if (at_end()) return fail("unterminated string");
      const char c = text[pos++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) {
        return fail("raw control byte in string");
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (at_end()) return fail("truncated escape");
      const char e = text[pos++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          std::uint32_t cp = 0;
          if (!hex4(cp)) return false;
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // High surrogate: a low surrogate must follow.
            if (pos + 1 >= text.size() || text[pos] != '\\' ||
                text[pos + 1] != 'u') {
              return fail("unpaired surrogate");
            }
            pos += 2;
            std::uint32_t lo = 0;
            if (!hex4(lo)) return false;
            if (lo < 0xDC00 || lo > 0xDFFF) return fail("unpaired surrogate");
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            return fail("unpaired surrogate");
          }
          append_utf8(out, cp);
          break;
        }
        default:
          return fail("unknown escape");
      }
    }
  }

  bool parse_number(double& out) {
    const std::size_t start = pos;
    if (!at_end() && text[pos] == '-') ++pos;
    if (at_end() || text[pos] < '0' || text[pos] > '9') {
      pos = start;
      return fail("invalid number");
    }
    if (text[pos] == '0') {
      ++pos;  // no leading zeros
    } else {
      while (!at_end() && text[pos] >= '0' && text[pos] <= '9') ++pos;
    }
    if (!at_end() && text[pos] == '.') {
      ++pos;
      if (at_end() || text[pos] < '0' || text[pos] > '9') {
        return fail("invalid number");
      }
      while (!at_end() && text[pos] >= '0' && text[pos] <= '9') ++pos;
    }
    if (!at_end() && (text[pos] == 'e' || text[pos] == 'E')) {
      ++pos;
      if (!at_end() && (text[pos] == '+' || text[pos] == '-')) ++pos;
      if (at_end() || text[pos] < '0' || text[pos] > '9') {
        return fail("invalid number");
      }
      while (!at_end() && text[pos] >= '0' && text[pos] <= '9') ++pos;
    }
    // A valid JSON number, read locale-free; what can still fail is range
    // (1e999, 1e-999), which is rejected rather than saturated.
    const auto [end, ec] =
        std::from_chars(text.data() + start, text.data() + pos, out);
    if (ec != std::errc() || end != text.data() + pos) {
      pos = start;
      return fail("number out of range");
    }
    return true;
  }

  bool parse_value(Value& out, int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    skip_ws();
    if (at_end()) return fail("unexpected end of input");
    const char c = peek();
    if (c == '{') {
      ++pos;
      std::vector<Member> members;
      skip_ws();
      if (!at_end() && peek() == '}') {
        ++pos;
        out = Value::object(std::move(members));
        return true;
      }
      for (;;) {
        std::string key;
        skip_ws();
        if (!parse_string(key)) return false;
        if (!consume(':', "':'")) return false;
        Value v;
        if (!parse_value(v, depth + 1)) return false;
        members.emplace_back(std::move(key), std::move(v));
        skip_ws();
        if (at_end()) return fail("unterminated object");
        if (peek() == ',') {
          ++pos;
          continue;
        }
        if (peek() == '}') {
          ++pos;
          out = Value::object(std::move(members));
          return true;
        }
        return fail("expected ',' or '}'");
      }
    }
    if (c == '[') {
      ++pos;
      std::vector<Value> elems;
      skip_ws();
      if (!at_end() && peek() == ']') {
        ++pos;
        out = Value::array(std::move(elems));
        return true;
      }
      for (;;) {
        Value v;
        if (!parse_value(v, depth + 1)) return false;
        elems.push_back(std::move(v));
        skip_ws();
        if (at_end()) return fail("unterminated array");
        if (peek() == ',') {
          ++pos;
          continue;
        }
        if (peek() == ']') {
          ++pos;
          out = Value::array(std::move(elems));
          return true;
        }
        return fail("expected ',' or ']'");
      }
    }
    if (c == '"') {
      std::string s;
      if (!parse_string(s)) return false;
      out = Value(std::move(s));
      return true;
    }
    if (c == 't') {
      if (!literal("true")) return false;
      out = Value(true);
      return true;
    }
    if (c == 'f') {
      if (!literal("false")) return false;
      out = Value(false);
      return true;
    }
    if (c == 'n') {
      if (!literal("null")) return false;
      out = Value();
      return true;
    }
    double num = 0;
    if (!parse_number(num)) return false;
    out = Value(num);
    return true;
  }
};

}  // namespace

Value Value::array(std::vector<Value> elems) {
  Value v;
  v.kind_ = Kind::Array;
  v.elems_ = std::move(elems);
  return v;
}

Value Value::object(std::vector<Member> members) {
  Value v;
  v.kind_ = Kind::Object;
  v.members_ = std::move(members);
  return v;
}

const Value* Value::find(std::string_view key) const {
  const Value* found = nullptr;
  for (const auto& [k, v] : members_) {
    if (k == key) found = &v;  // last occurrence wins
  }
  return found;
}

std::optional<std::string> Value::get_string(std::string_view key) const {
  const Value* v = find(key);
  if (v == nullptr || !v->is_string()) return std::nullopt;
  return v->str();
}

std::optional<double> Value::get_number(std::string_view key) const {
  const Value* v = find(key);
  if (v == nullptr || !v->is_number()) return std::nullopt;
  return v->number();
}

std::optional<bool> Value::get_bool(std::string_view key) const {
  const Value* v = find(key);
  if (v == nullptr || !v->is_bool()) return std::nullopt;
  return v->kind() == Kind::Bool && v->boolean();
}

std::optional<std::uint32_t> Value::get_u32(std::string_view key) const {
  const Value* v = find(key);
  if (v == nullptr || !v->is_number()) return std::nullopt;
  const double d = v->number();
  if (!(d >= 0) || d > 4294967295.0 || d != std::floor(d)) return std::nullopt;
  return static_cast<std::uint32_t>(d);
}

Result<Value> parse(std::string_view text) {
  Parser p{text, 0, {}};
  Value v;
  if (!p.parse_value(v, 0)) return make_error("json: " + p.error);
  p.skip_ws();
  if (!p.at_end()) {
    return make_error("json: trailing content at byte " +
                      std::to_string(p.pos));
  }
  return v;
}

void append_escaped(std::string& out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::size_t run = 0;  // start of the pending run of verbatim bytes
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        out += "\\u00";
        out += kHex[c >> 4];
        out += kHex[c & 0xF];
    }
  }
  out.append(s.data() + run, s.size() - run);
}

void append_number(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  char buf[32];  // %.17g needs at most 24: sign, 17 digits, '.', "e-308"
  const auto r =
      std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general, 17);
  out.append(buf, r.ptr);
}

}  // namespace tytra::json
