#include "tytra/kernels/lowerers.hpp"

#include <string>

namespace tytra::kernels {

namespace {

/// "key=value" fingerprint fields, '/'-separated. Human-readable on
/// purpose: the fingerprint doubles as the debugging record of what a
/// variant key assumed.
class Fingerprint {
 public:
  explicit Fingerprint(std::string_view kernel) : text_(kernel) {}

  Fingerprint& field(std::string_view key, const std::string& value) {
    text_ += '/';
    text_ += key;
    text_ += '=';
    text_ += value;
    return *this;
  }
  Fingerprint& field(std::string_view key, std::uint64_t value) {
    return field(key, std::to_string(value));
  }
  Fingerprint& field(std::string_view key, std::int64_t value) {
    return field(key, std::to_string(value));
  }
  Fingerprint& field(std::string_view key, ir::ExecForm form) {
    return field(key, std::string(ir::exec_form_name(form)));
  }
  Fingerprint& field(std::string_view key, const ir::ScalarType& elem) {
    return field(key, elem.to_string());
  }

  [[nodiscard]] std::string take() { return std::move(text_); }

 private:
  std::string text_;
};

}  // namespace

dse::KeyedLowerer sor_lowerer(SorConfig config) {
  std::string fp = Fingerprint("sor")
                       .field("im", std::uint64_t{config.im})
                       .field("jm", std::uint64_t{config.jm})
                       .field("km", std::uint64_t{config.km})
                       .field("nki", std::uint64_t{config.nki})
                       .field("form", config.form)
                       .field("elem", config.elem)
                       .field("omega", config.omega)
                       .take();
  return dse::KeyedLowerer(
      std::move(fp),
      [config](const frontend::Variant& v) {
        // Copy before patching lanes: workers share this closure and call
        // it concurrently.
        SorConfig c = config;
        c.lanes = v.lanes();
        return make_sor(c);
      });
}

dse::KeyedLowerer hotspot_lowerer(HotspotConfig config) {
  std::string fp = Fingerprint("hotspot")
                       .field("rows", std::uint64_t{config.rows})
                       .field("cols", std::uint64_t{config.cols})
                       .field("nki", std::uint64_t{config.nki})
                       .field("form", config.form)
                       .field("elem", config.elem)
                       .take();
  return dse::KeyedLowerer(
      std::move(fp),
      [config](const frontend::Variant& v) {
        HotspotConfig c = config;
        c.lanes = v.lanes();
        return make_hotspot(c);
      });
}

dse::KeyedLowerer lavamd_lowerer(LavamdConfig config) {
  std::string fp = Fingerprint("lavamd")
                       .field("particles", config.particles)
                       .field("nki", std::uint64_t{config.nki})
                       .field("dv", std::uint64_t{config.dv})
                       .field("form", config.form)
                       .field("elem", config.elem)
                       .take();
  return dse::KeyedLowerer(
      std::move(fp),
      [config](const frontend::Variant& v) {
        LavamdConfig c = config;
        c.lanes = v.lanes();
        return make_lavamd(c);
      });
}

}  // namespace tytra::kernels
