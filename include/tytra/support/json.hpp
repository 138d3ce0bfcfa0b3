#pragma once

// A minimal JSON value type and recursive-descent parser — the request
// side of the daemon's wire protocol (support/framing.hpp). The engine
// has always *rendered* JSON (dse::format_*_json); tytra-dsed must also
// *read* it, and the container image bakes in no JSON library, so this
// is the smallest parser that round-trips everything the renderers emit:
// objects, arrays, strings (with \uXXXX escapes), doubles, bools, null.
//
// Deliberately not a general-purpose library: no DOM mutation helpers,
// no document serialization (every JSON producer appends to a std::string
// through append_escaped() and append_number() below), no streaming.
// Strictness follows RFC 8259 where it matters for a network-facing daemon
// — depth-limited nesting (a 10 kB frame of '[' must not recurse the stack
// away), duplicate keys keep the last value, trailing garbage is an error
// — and the parse result is a structured tytra::Result, never an
// exception, because every malformed frame is expected input.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "tytra/support/diag.hpp"

namespace tytra::json {

class Value;
using Member = std::pair<std::string, Value>;

/// One JSON value. A tagged union over the six JSON kinds; numbers are
/// doubles (the renderers emit nothing wider — u64 counts round-trip
/// exactly up to 2^53, far beyond any protocol field).
class Value {
 public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Value() = default;
  explicit Value(bool b) : kind_(Kind::Bool), bool_(b) {}
  explicit Value(double n) : kind_(Kind::Number), num_(n) {}
  explicit Value(std::string s) : kind_(Kind::String), str_(std::move(s)) {}
  static Value array(std::vector<Value> elems);
  static Value object(std::vector<Member> members);

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool is_null() const { return kind_ == Kind::Null; }
  [[nodiscard]] bool is_bool() const { return kind_ == Kind::Bool; }
  [[nodiscard]] bool is_number() const { return kind_ == Kind::Number; }
  [[nodiscard]] bool is_string() const { return kind_ == Kind::String; }
  [[nodiscard]] bool is_array() const { return kind_ == Kind::Array; }
  [[nodiscard]] bool is_object() const { return kind_ == Kind::Object; }

  /// Kind-checked accessors: the wrong kind yields the type's zero value
  /// (false / 0.0 / empty), never UB — protocol handlers probe freely
  /// and validate with the typed helpers below.
  [[nodiscard]] bool boolean() const { return is_bool() && bool_; }
  [[nodiscard]] double number() const { return is_number() ? num_ : 0.0; }
  [[nodiscard]] const std::string& str() const { return str_; }
  [[nodiscard]] const std::vector<Value>& elements() const { return elems_; }
  [[nodiscard]] const std::vector<Member>& members() const { return members_; }

  /// Object member lookup; null when this is not an object or the key is
  /// absent. Duplicate keys resolved to the last occurrence (RFC 8259
  /// leaves it open; last-wins matches every mainstream parser).
  [[nodiscard]] const Value* find(std::string_view key) const;

  /// Typed member helpers: nullopt when absent or of the wrong kind.
  [[nodiscard]] std::optional<std::string> get_string(
      std::string_view key) const;
  [[nodiscard]] std::optional<double> get_number(std::string_view key) const;
  [[nodiscard]] std::optional<bool> get_bool(std::string_view key) const;
  /// Member as a non-negative integer that fits u32 (protocol counts);
  /// nullopt for absent, non-numeric, negative, fractional or oversized.
  [[nodiscard]] std::optional<std::uint32_t> get_u32(
      std::string_view key) const;

 private:
  Kind kind_{Kind::Null};
  bool bool_{false};
  double num_{0};
  std::string str_;
  std::vector<Value> elems_;
  std::vector<Member> members_;
};

/// Parses exactly one JSON document from `text` (leading/trailing
/// whitespace allowed, anything else after the value is an error). The
/// error diagnostic carries the byte offset of the first defect.
Result<Value> parse(std::string_view text);

/// Appends `s` to `out` escaped for a JSON string literal (without the
/// quotes): '"', '\\', \n and \t by name, other control bytes as \u00xx.
/// The one place a JSON string is escaped, so every producer agrees
/// byte-for-byte with what the parser accepts.
void append_escaped(std::string& out, std::string_view s);

/// Appends `v` to `out` as a JSON number at round-trip precision (17
/// significant digits, printf's %.17g); non-finite values, which JSON
/// cannot carry, become null. The one place a JSON number is printed.
void append_number(std::string& out, double v);

}  // namespace tytra::json
