#include "tytra/cost/calibration.hpp"

#include <chrono>
#include <cmath>

#include "tytra/membench/dram.hpp"
#include "tytra/support/failpoint.hpp"
#include "tytra/support/hash.hpp"

namespace tytra::cost {

namespace {

using ir::Opcode;
using ir::ScalarKind;
using ir::ScalarType;

/// Op classes whose ALUT law is quadratic in bit-width (array-of-cells
/// structures: dividers, square roots).
bool quadratic_law(Opcode op) {
  switch (op) {
    case Opcode::Div:
    case Opcode::Rem:
    case Opcode::Sqrt:
      return true;
    default:
      return false;
  }
}

/// Op classes whose logic law is piecewise linear with discontinuities
/// (multiplier DSP tiles, barrel-shifter stage counts): captured with a
/// dense probe sweep, as the paper does for the multiplier of Fig. 9.
bool piecewise_law(Opcode op) {
  switch (op) {
    case Opcode::Mul:
    case Opcode::Mac:
    case Opcode::Shl:
    case Opcode::LShr:
    case Opcode::AShr:
      return true;
    default:
      return false;
  }
}

OpLaw fit_int_law(Opcode op, const target::DeviceDesc& device) {
  OpLaw law;
  law.fit_degree = quadratic_law(op) ? 2 : 1;

  std::vector<double> xs;
  std::vector<double> aluts;
  std::vector<double> regs;
  std::vector<double> bram;
  for (const int w : DeviceCostDb::kIntProbeWidths) {
    const ResourceVec r = fabric::core_resources(
        op, ScalarType::uint(static_cast<std::uint16_t>(w)), device);
    xs.push_back(w);
    aluts.push_back(r.aluts);
    regs.push_back(r.regs);
    bram.push_back(r.bram_bits);
  }
  law.aluts = tytra::Polynomial::fit(xs, aluts, law.fit_degree);
  law.regs = tytra::Polynomial::fit(xs, regs, law.fit_degree);
  law.bram_bits = tytra::Polynomial::fit(xs, bram, 1);

  // DSP usage is discrete with discontinuities: probe densely once, keep
  // the step structure (Fig. 9's multiplier DSP curve).
  std::vector<double> dense_xs;
  std::vector<double> dsp_ys;
  std::vector<double> dense_aluts;
  std::vector<double> dense_regs;
  for (int w = 2; w <= 64; w += 1) {
    const ResourceVec r = fabric::core_resources(
        op, ScalarType::uint(static_cast<std::uint16_t>(w)), device);
    dense_xs.push_back(w);
    dsp_ys.push_back(r.dsps);
    dense_aluts.push_back(r.aluts);
    dense_regs.push_back(r.regs);
  }
  law.dsps = tytra::StepModel::from_samples(dense_xs, dsp_ys);
  if (piecewise_law(op)) {
    law.aluts_pwl = tytra::PiecewiseLinear::through_points(dense_xs, dense_aluts);
    law.regs_pwl = tytra::PiecewiseLinear::through_points(dense_xs, dense_regs);
  }
  return law;
}

}  // namespace

std::uint64_t device_fingerprint(const target::DeviceDesc& dev) {
  // Every field a cost report can depend on: two databases calibrated
  // from devices with equal fingerprints produce equal reports, even when
  // a .tgt file is edited under an unchanged device name.
  return HashBuilder{}
      .str(dev.name)
      .str(dev.family)
      .u64(dev.resources.aluts)
      .u64(dev.resources.regs)
      .u64(dev.resources.bram_bits)
      .u64(dev.resources.dsps)
      .f64(dev.fmax_hz)
      .f64(dev.default_freq_hz)
      .f64(dev.dram.io_clock_hz)
      .f64(dev.dram.bus_bytes)
      .f64(dev.dram.burst_bytes)
      .f64(dev.dram.row_bytes)
      .f64(dev.dram.row_miss_cycles)
      .f64(dev.dram.setup_seconds)
      .f64(dev.dram_peak_bw)
      .f64(dev.host.peak_bw)
      .f64(dev.host.efficiency)
      .f64(dev.host.latency_seconds)
      .u64(dev.word_bytes)
      .f64(dev.shell_overhead)
      .value();
}

DeviceCostDb DeviceCostDb::calibrate(const target::DeviceDesc& device) {
  // Calibration is the probe/measure phase: a fault here (the failpoint
  // stands in for a flaky probe run) must surface before any DSE work
  // consumes the half-built table.
  failpoint::maybe_throw("calibration.measure");
  const auto t0 = std::chrono::steady_clock::now();
  DeviceCostDb db;
  db.device_ = device;
  db.fingerprint_ = device_fingerprint(device);

  for (int i = 0; i < ir::kNumOpcodes; ++i) {
    const auto op = static_cast<Opcode>(i);
    const ir::OpInfo& info = ir::op_info(op);
    if (info.integer_ok) db.int_laws_[op] = fit_int_law(op, device);
    if (info.float_ok) {
      for (const int w : {16, 32, 64}) {
        ScalarType t{ScalarKind::Float, static_cast<std::uint16_t>(w), 0};
        db.float_costs_[{op, w}] = fabric::core_resources(op, t, device);
      }
    }
  }

  db.bandwidth_ = membench::BandwidthTable::measure(device);

  // Host-link sweep (measured through the link model, kept as a table).
  const membench::HostLinkModel host(device.host);
  std::vector<double> xs;
  std::vector<double> bw;
  for (std::uint64_t bytes = 4096; bytes <= (1ULL << 31); bytes <<= 1) {
    xs.push_back(std::log2(static_cast<double>(bytes)));
    bw.push_back(host.sustained_bw(bytes));
  }
  db.host_bw_ = tytra::PiecewiseLinear::through_points(xs, bw);

  const auto t1 = std::chrono::steady_clock::now();
  db.calib_seconds_ =
      std::chrono::duration_cast<std::chrono::duration<double>>(t1 - t0).count();
  return db;
}

const OpLaw& DeviceCostDb::int_law(ir::Opcode op) const {
  const auto it = int_laws_.find(op);
  if (it == int_laws_.end()) {
    throw std::invalid_argument("DeviceCostDb: no integer law for op '" +
                                std::string(ir::opcode_name(op)) + "'");
  }
  return it->second;
}

ResourceVec DeviceCostDb::op_cost(ir::Opcode op,
                                  const ir::ScalarType& type) const {
  if (type.is_float()) {
    // Nearest probed float width.
    const int w = type.bits <= 16 ? 16 : (type.bits <= 32 ? 32 : 64);
    const auto it = float_costs_.find({op, w});
    return it != float_costs_.end() ? it->second : ResourceVec{};
  }
  const auto it = int_laws_.find(op);
  if (it == int_laws_.end()) return {};
  const OpLaw& law = it->second;
  const double w = type.bits;
  ResourceVec r;
  r.aluts = std::max(0.0, std::round(law.aluts_pwl.empty()
                                         ? law.aluts.eval(w)
                                         : law.aluts_pwl.eval(w)));
  r.regs = std::max(0.0, std::round(law.regs_pwl.empty() ? law.regs.eval(w)
                                                         : law.regs_pwl.eval(w)));
  r.bram_bits = std::max(0.0, std::round(law.bram_bits.eval(w)));
  r.dsps = std::max(0.0, law.dsps.eval(w));
  return r;
}

ResourceVec DeviceCostDb::op_cost_const(ir::Opcode op,
                                        const ir::ScalarType& type,
                                        std::int64_t constant) const {
  if (type.is_float()) return op_cost(op, type);
  const auto uc =
      static_cast<std::uint64_t>(constant < 0 ? -constant : constant);
  const bool pow2 = uc != 0 && (uc & (uc - 1)) == 0;
  const double w = type.bits;
  switch (op) {
    case ir::Opcode::Mul:
      if (uc == 0 || pow2) return {0, w, 0, 0};
      break;
    case ir::Opcode::Div:
      if (pow2) return {0, w, 0, 0};
      break;
    case ir::Opcode::Rem:
      if (pow2) return {std::ceil(w / 2.0), w, 0, 0};
      break;
    default:
      break;
  }
  return op_cost(op, type);
}

ResourceVec DeviceCostDb::offset_buffer_cost(std::uint32_t bits,
                                             std::uint64_t depth_words) const {
  // Structural law (same functional form the probes reveal), with the
  // model's FIFO guard-slot margin on BRAM-backed buffers.
  ResourceVec r;
  if (depth_words == 0) return r;
  const double total_bits = static_cast<double>(bits) * static_cast<double>(depth_words);
  if (total_bits <= 640) {
    r.regs = total_bits;
    r.aluts = bits;
    return r;
  }
  r.bram_bits = std::ceil(total_bits * 1.003);  // guard slots
  r.aluts = 24 + std::ceil(std::log2(static_cast<double>(depth_words))) * 2.0;
  r.regs = 2.0 * bits + 16;
  return r;
}

ResourceVec DeviceCostDb::stream_control_cost(
    std::uint32_t bits, std::uint64_t addr_range_words) const {
  const double addr_bits = std::max(
      1.0, std::ceil(std::log2(static_cast<double>(
               std::max<std::uint64_t>(addr_range_words, 2)))));
  ResourceVec r;
  r.aluts = 18 + 1.5 * addr_bits + 0.25 * bits;
  r.regs = 12 + addr_bits + bits;
  return r;
}

double DeviceCostDb::host_sustained(std::uint64_t bytes) const {
  if (bytes == 0) return device_.host.peak_bw * device_.host.efficiency;
  return std::max(1.0, host_bw_.eval(std::log2(static_cast<double>(bytes))));
}

// ---------------------------------------------------------------------------
// Snapshot serialization
// ---------------------------------------------------------------------------

namespace {

void save_resource_vec(binio::Encoder& enc, const ResourceVec& v) {
  enc.f64(v.aluts);
  enc.f64(v.regs);
  enc.f64(v.bram_bits);
  enc.f64(v.dsps);
}

ResourceVec load_resource_vec(binio::Decoder& dec) {
  ResourceVec v;
  v.aluts = dec.f64();
  v.regs = dec.f64();
  v.bram_bits = dec.f64();
  v.dsps = dec.f64();
  return v;
}

void save_poly(binio::Encoder& enc, const tytra::Polynomial& p) {
  enc.u64(p.coeffs().size());
  for (double c : p.coeffs()) enc.f64(c);
}

tytra::Polynomial load_poly(binio::Decoder& dec) {
  const std::uint64_t count = dec.u64();
  if (!dec.fits(count, 8)) return {};
  std::vector<double> coeffs;
  coeffs.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count && dec.ok(); ++i) {
    coeffs.push_back(dec.f64());
  }
  if (!dec.ok()) return {};
  return tytra::Polynomial(std::move(coeffs));
}

void save_pwl(binio::Encoder& enc, const tytra::PiecewiseLinear& p) {
  enc.u64(p.knots().size());
  for (const auto& k : p.knots()) {
    enc.f64(k.x);
    enc.f64(k.y);
  }
}

/// Pre-validates the strictly-increasing-x invariant the ctor would throw
/// on, turning a corrupt payload into a clean decode failure.
tytra::PiecewiseLinear load_pwl(binio::Decoder& dec) {
  const std::uint64_t count = dec.u64();
  if (!dec.fits(count, 2 * 8)) return {};
  std::vector<tytra::PiecewiseLinear::Knot> knots;
  knots.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count && dec.ok(); ++i) {
    tytra::PiecewiseLinear::Knot k;
    k.x = dec.f64();
    k.y = dec.f64();
    if (!knots.empty() && !(knots.back().x < k.x)) {
      dec.fail("calibration: piecewise-linear knots out of order");
      return {};
    }
    knots.push_back(k);
  }
  if (!dec.ok()) return {};
  return tytra::PiecewiseLinear(std::move(knots));
}

void save_steps(binio::Encoder& enc, const tytra::StepModel& m) {
  enc.u64(m.steps().size());
  for (const auto& s : m.steps()) {
    enc.f64(s.from_x);
    enc.f64(s.value);
  }
}

tytra::StepModel load_steps(binio::Decoder& dec) {
  const std::uint64_t count = dec.u64();
  if (!dec.fits(count, 2 * 8)) return {};
  std::vector<tytra::StepModel::Step> steps;
  steps.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count && dec.ok(); ++i) {
    tytra::StepModel::Step s;
    s.from_x = dec.f64();
    s.value = dec.f64();
    if (!steps.empty() && !(steps.back().from_x < s.from_x)) {
      dec.fail("calibration: step-model breakpoints out of order");
      return {};
    }
    steps.push_back(s);
  }
  if (!dec.ok()) return {};
  return tytra::StepModel(std::move(steps));
}

void save_op_law(binio::Encoder& enc, const OpLaw& law) {
  save_poly(enc, law.aluts);
  save_poly(enc, law.regs);
  save_poly(enc, law.bram_bits);
  save_steps(enc, law.dsps);
  enc.i64(law.fit_degree);
  save_pwl(enc, law.aluts_pwl);
  save_pwl(enc, law.regs_pwl);
}

OpLaw load_op_law(binio::Decoder& dec) {
  OpLaw law;
  law.aluts = load_poly(dec);
  law.regs = load_poly(dec);
  law.bram_bits = load_poly(dec);
  law.dsps = load_steps(dec);
  law.fit_degree = static_cast<int>(dec.i64());
  law.aluts_pwl = load_pwl(dec);
  law.regs_pwl = load_pwl(dec);
  return law;
}

void save_device(binio::Encoder& enc, const target::DeviceDesc& dev) {
  enc.str(dev.name);
  enc.str(dev.family);
  enc.u64(dev.resources.aluts);
  enc.u64(dev.resources.regs);
  enc.u64(dev.resources.bram_bits);
  enc.u64(dev.resources.dsps);
  enc.f64(dev.fmax_hz);
  enc.f64(dev.default_freq_hz);
  enc.f64(dev.dram.io_clock_hz);
  enc.f64(dev.dram.bus_bytes);
  enc.f64(dev.dram.burst_bytes);
  enc.f64(dev.dram.row_bytes);
  enc.f64(dev.dram.row_miss_cycles);
  enc.f64(dev.dram.setup_seconds);
  enc.f64(dev.dram_peak_bw);
  enc.f64(dev.host.peak_bw);
  enc.f64(dev.host.efficiency);
  enc.f64(dev.host.latency_seconds);
  enc.f64(dev.power.static_watts);
  enc.f64(dev.power.alut_nw);
  enc.f64(dev.power.dsp_nw);
  enc.f64(dev.power.bram_kb_nw);
  enc.u32(dev.word_bytes);
  enc.f64(dev.shell_overhead);
}

target::DeviceDesc load_device(binio::Decoder& dec) {
  target::DeviceDesc dev;
  dev.name = dec.str();
  dev.family = dec.str();
  dev.resources.aluts = dec.u64();
  dev.resources.regs = dec.u64();
  dev.resources.bram_bits = dec.u64();
  dev.resources.dsps = dec.u64();
  dev.fmax_hz = dec.f64();
  dev.default_freq_hz = dec.f64();
  dev.dram.io_clock_hz = dec.f64();
  dev.dram.bus_bytes = dec.f64();
  dev.dram.burst_bytes = dec.f64();
  dev.dram.row_bytes = dec.f64();
  dev.dram.row_miss_cycles = dec.f64();
  dev.dram.setup_seconds = dec.f64();
  dev.dram_peak_bw = dec.f64();
  dev.host.peak_bw = dec.f64();
  dev.host.efficiency = dec.f64();
  dev.host.latency_seconds = dec.f64();
  dev.power.static_watts = dec.f64();
  dev.power.alut_nw = dec.f64();
  dev.power.dsp_nw = dec.f64();
  dev.power.bram_kb_nw = dec.f64();
  dev.word_bytes = dec.u32();
  dev.shell_overhead = dec.f64();
  return dev;
}

}  // namespace

void DeviceCostDb::save(binio::Encoder& enc) const {
  save_device(enc, device_);
  enc.u64(int_laws_.size());
  for (const auto& [op, law] : int_laws_) {
    enc.u8(static_cast<std::uint8_t>(op));
    save_op_law(enc, law);
  }
  enc.u64(float_costs_.size());
  for (const auto& [key, vec] : float_costs_) {
    enc.u8(static_cast<std::uint8_t>(key.first));
    enc.i64(key.second);
    save_resource_vec(enc, vec);
  }
  bandwidth_.save(enc);
  save_pwl(enc, host_bw_);
  enc.f64(calib_seconds_);
}

tytra::Result<DeviceCostDb> DeviceCostDb::load(binio::Decoder& dec) {
  DeviceCostDb db;
  db.device_ = load_device(dec);

  const std::uint64_t laws = dec.u64();
  if (dec.fits(laws, 8)) {
    for (std::uint64_t i = 0; i < laws && dec.ok(); ++i) {
      const std::uint8_t op = dec.u8();
      if (op >= static_cast<std::uint8_t>(ir::kNumOpcodes)) {
        dec.fail("calibration: opcode out of range in integer-law table");
        break;
      }
      db.int_laws_[static_cast<ir::Opcode>(op)] = load_op_law(dec);
    }
  }

  const std::uint64_t floats = dec.u64();
  if (dec.fits(floats, 1 + 8 + 4 * 8)) {
    for (std::uint64_t i = 0; i < floats && dec.ok(); ++i) {
      const std::uint8_t op = dec.u8();
      if (op >= static_cast<std::uint8_t>(ir::kNumOpcodes)) {
        dec.fail("calibration: opcode out of range in float-cost table");
        break;
      }
      const int width = static_cast<int>(dec.i64());
      db.float_costs_[{static_cast<ir::Opcode>(op), width}] =
          load_resource_vec(dec);
    }
  }

  db.bandwidth_ = membench::BandwidthTable::load(dec);
  db.host_bw_ = load_pwl(dec);
  db.calib_seconds_ = dec.f64();

  if (!dec.ok()) {
    return make_error("calibration snapshot: " + dec.error());
  }
  db.fingerprint_ = device_fingerprint(db.device_);
  return db;
}

}  // namespace tytra::cost
