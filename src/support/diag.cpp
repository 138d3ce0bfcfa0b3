#include "tytra/support/diag.hpp"

#include "tytra/support/json.hpp"

namespace tytra {

std::string Diag::to_json() const {
  std::string out = "{\"severity\": \"";
  out += severity_name(severity);
  out += "\", \"code\": ";
  if (code.empty()) {
    out += "null";
  } else {
    out += '"';
    json::append_escaped(out, code);
    out += '"';
  }
  out += ", \"line\": ";
  out += std::to_string(loc.line);
  out += ", \"col\": ";
  out += std::to_string(loc.col);
  out += ", \"message\": \"";
  json::append_escaped(out, message);
  out += "\"}";
  return out;
}

std::string DiagBag::to_json() const {
  std::string out = "[";
  for (std::size_t i = 0; i < diags_.size(); ++i) {
    out += i ? ", " : "";
    out += diags_[i].to_json();
  }
  out += "]";
  return out;
}

}  // namespace tytra
