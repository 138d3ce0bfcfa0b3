#include "tytra/ir/type.hpp"

#include <charconv>

namespace tytra::ir {

namespace {

const char* kind_prefix(ScalarKind kind) {
  switch (kind) {
    case ScalarKind::UInt: return "ui";
    case ScalarKind::SInt: return "i";
    case ScalarKind::Float: return "f";
    case ScalarKind::Fixed: return "fx";
  }
  return nullptr;
}

}  // namespace

std::string ScalarType::to_string() const {
  const char* prefix = kind_prefix(kind);
  if (prefix == nullptr) return "?";
  std::string out = prefix;
  out += std::to_string(bits);
  if (kind == ScalarKind::Fixed) {
    out += '.';
    out += std::to_string(frac);
  }
  return out;
}

std::string Type::to_string() const {
  if (lanes == 1) return scalar.to_string();
  std::string out = "<";
  out += std::to_string(lanes);
  out += " x ";
  out += scalar.to_string();
  out += '>';
  return out;
}

namespace {

bool parse_u16(std::string_view text, std::uint16_t& out) {
  unsigned value = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || ptr != text.data() + text.size() || value == 0 ||
      value > 4096) {
    return false;
  }
  out = static_cast<std::uint16_t>(value);
  return true;
}

}  // namespace

tytra::Result<ScalarType> parse_scalar_type(std::string_view text) {
  ScalarType st;
  std::string_view rest;
  if (text.starts_with("ui")) {
    st.kind = ScalarKind::UInt;
    rest = text.substr(2);
  } else if (text.starts_with("fx")) {
    st.kind = ScalarKind::Fixed;
    rest = text.substr(2);
    const auto dot = rest.find('.');
    if (dot == std::string_view::npos) {
      return tytra::make_error("fixed-point type needs total.frac bits: '" +
                               std::string(text) + "'");
    }
    if (!parse_u16(rest.substr(dot + 1), st.frac)) {
      return tytra::make_error("bad fractional bits in '" + std::string(text) + "'");
    }
    rest = rest.substr(0, dot);
  } else if (text.starts_with("f")) {
    st.kind = ScalarKind::Float;
    rest = text.substr(1);
  } else if (text.starts_with("i")) {
    st.kind = ScalarKind::SInt;
    rest = text.substr(1);
  } else {
    return tytra::make_error("unknown type '" + std::string(text) + "'");
  }
  if (!parse_u16(rest, st.bits)) {
    return tytra::make_error("bad bit-width in type '" + std::string(text) + "'");
  }
  if (st.kind == ScalarKind::Float && st.bits != 32 && st.bits != 64 &&
      st.bits != 16) {
    return tytra::make_error("float type must be f16/f32/f64, got '" +
                             std::string(text) + "'");
  }
  if (st.kind == ScalarKind::Fixed && st.frac > st.bits) {
    return tytra::make_error("fixed-point frac bits exceed total bits in '" +
                             std::string(text) + "'");
  }
  return st;
}

}  // namespace tytra::ir
