#pragma once

// Diagnostics and error propagation used across the TyTra-CM library.
//
// Parsers, verifiers and other fallible front-line components report
// failures as `Result<T>` values carrying a `Diag` (message + source
// location) instead of throwing across module boundaries.

#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace tytra {

/// A position in a textual input (1-based line/column; 0 means unknown).
struct SourceLoc {
  int line{0};
  int col{0};

  [[nodiscard]] bool known() const { return line > 0; }
  friend bool operator==(const SourceLoc&, const SourceLoc&) = default;
};

inline std::ostream& operator<<(std::ostream& os, const SourceLoc& loc) {
  if (loc.known()) os << loc.line << ':' << loc.col;
  else os << "<unknown>";
  return os;
}

/// Severity of a diagnostic message.
enum class Severity : std::uint8_t { Error, Warning, Note };

[[nodiscard]] constexpr std::string_view severity_name(Severity s) {
  switch (s) {
    case Severity::Error: return "error";
    case Severity::Warning: return "warning";
    case Severity::Note: return "note";
  }
  return "error";
}

/// A single diagnostic: severity, message, (optional) location and
/// (optional) stable rule code. Codes ("TL005") come from coded passes
/// such as ir::lint; the verifier and parser leave the field empty, and
/// an empty code renders exactly as it always has — tools pinning those
/// messages byte-for-byte are unaffected.
struct Diag {
  Severity severity{Severity::Error};
  std::string message;
  SourceLoc loc;
  std::string code;  ///< stable rule code, e.g. "TL005"; empty = uncoded

  [[nodiscard]] std::string to_string() const {
    std::string out{severity_name(severity)};
    if (!code.empty()) out += " [" + code + "]";
    if (loc.known()) {
      out += " at " + std::to_string(loc.line) + ':' + std::to_string(loc.col);
    }
    out += ": " + message;
    return out;
  }

  /// Machine-readable rendering: one JSON object with "severity",
  /// "code" (null when uncoded), "line"/"col" (0 = unknown) and
  /// "message". Defined in src/support/diag.cpp (needs json::append_escaped).
  [[nodiscard]] std::string to_json() const;
};

inline Diag make_error(std::string message, SourceLoc loc = {}) {
  return Diag{Severity::Error, std::move(message), loc, {}};
}

/// Accumulates diagnostics; used by multi-error passes such as the verifier.
class DiagBag {
 public:
  void add(Diag d) { diags_.push_back(std::move(d)); }
  void error(std::string message, SourceLoc loc = {}) {
    add(make_error(std::move(message), loc));
  }
  void warning(std::string message, SourceLoc loc = {}) {
    add(Diag{Severity::Warning, std::move(message), loc, {}});
  }

  [[nodiscard]] bool has_errors() const {
    for (const auto& d : diags_) {
      if (d.severity == Severity::Error) return true;
    }
    return false;
  }
  [[nodiscard]] std::size_t size() const { return diags_.size(); }
  [[nodiscard]] bool empty() const { return diags_.empty(); }
  [[nodiscard]] const std::vector<Diag>& all() const { return diags_; }

  [[nodiscard]] std::size_t count(Severity s) const {
    std::size_t n = 0;
    for (const auto& d : diags_) {
      if (d.severity == s) ++n;
    }
    return n;
  }

  [[nodiscard]] std::string to_string() const {
    std::string out;
    for (const auto& d : diags_) {
      out += d.to_string();
      out += '\n';
    }
    return out;
  }

  /// Machine-readable rendering: a JSON array of Diag::to_json objects.
  [[nodiscard]] std::string to_json() const;

 private:
  std::vector<Diag> diags_;
};

/// Minimal expected-like result: either a value or a diagnostic.
template <typename T>
class [[nodiscard]] Result {
 public:
  Result(T value) : value_(std::move(value)) {}  // NOLINT(google-explicit-constructor)
  Result(Diag diag) : diag_(std::move(diag)) {}  // NOLINT(google-explicit-constructor)

  [[nodiscard]] bool ok() const { return value_.has_value(); }
  explicit operator bool() const { return ok(); }

  /// Preconditions: ok(). Accessing the value of a failed result aborts.
  [[nodiscard]] T& value() & { return value_.value(); }
  [[nodiscard]] const T& value() const& { return value_.value(); }
  [[nodiscard]] T&& take() && { return std::move(value_).value(); }

  /// Preconditions: !ok().
  [[nodiscard]] const Diag& diag() const { return diag_.value(); }

  [[nodiscard]] std::string error_message() const {
    return diag_ ? diag_->to_string() : std::string{};
  }

 private:
  std::optional<T> value_;
  std::optional<Diag> diag_;
};

}  // namespace tytra
