#pragma once

// Calibration of the cost model against a target device — the "one-time
// set of benchmark experiments ... for each FPGA target" of Fig. 2.
//
// Resource laws are *fitted*, not copied: each op class is probe-
// synthesized at a handful of bit-widths (the paper uses 18/32/64 for the
// divider of Fig. 9) and a first- or second-order polynomial is fitted by
// least squares; DSP counts are probed densely and captured as a step
// function with discontinuities. Sustained memory bandwidth is measured
// with the STREAM-style benchmark and kept as an empirical table.

#include <array>
#include <map>

#include "tytra/fabric/cores.hpp"
#include "tytra/membench/stream_bench.hpp"
#include "tytra/resources.hpp"
#include "tytra/support/binio.hpp"
#include "tytra/support/polyfit.hpp"
#include "tytra/target/device.hpp"

namespace tytra::cost {

/// Fitted per-op resource law: ALUTs/registers as polynomials in
/// bit-width, DSP blocks as a step function, BRAM bits linear.
struct OpLaw {
  tytra::Polynomial aluts;
  tytra::Polynomial regs;
  tytra::Polynomial bram_bits;
  tytra::StepModel dsps;
  int fit_degree{1};
  /// For ops with piecewise-linear logic laws (multiplier tiles, barrel
  /// shifter stages — Fig. 9's mul-ALUTs curve) the calibrator probes
  /// densely and keeps the empirical piecewise model; when non-empty it
  /// takes precedence over the polynomials.
  tytra::PiecewiseLinear aluts_pwl;
  tytra::PiecewiseLinear regs_pwl;
};

/// Fingerprint of every DeviceDesc field a cost report can depend on.
/// Calibration is deterministic in the device description, so this value
/// pins every law and table the cost model reads. The DSE cache folds it
/// into both of its key levels (making stale snapshot entries unreachable
/// rather than filtered), and snapshots store it beside each persisted
/// calibration as its invalidation key.
std::uint64_t device_fingerprint(const target::DeviceDesc& device);

/// The calibrated per-device cost database.
class DeviceCostDb {
 public:
  /// Runs the calibration experiments for `device`: probe synthesis of
  /// every opcode over the probe widths, plus the bandwidth benchmark.
  static DeviceCostDb calibrate(const target::DeviceDesc& device);

  /// Estimated resources of one instance of `op` at the given type
  /// (per vector lane).
  [[nodiscard]] ResourceVec op_cost(ir::Opcode op,
                                    const ir::ScalarType& type) const;

  /// Like op_cost but with one compile-time-constant operand. The model
  /// applies only the *textbook* reductions every estimator knows
  /// (power-of-two multiply/divide become wiring/shifts); the fabric's
  /// cleverer shift-add networks and reciprocal multiplies remain unseen
  /// — a deliberate source of the Table-II error structure.
  [[nodiscard]] ResourceVec op_cost_const(ir::Opcode op,
                                          const ir::ScalarType& type,
                                          std::int64_t constant) const;

  /// Estimated resources of an offset buffer / stream-control block.
  /// These structural laws are derived from probe runs as well.
  [[nodiscard]] ResourceVec offset_buffer_cost(std::uint32_t bits,
                                               std::uint64_t depth_words) const;
  [[nodiscard]] ResourceVec stream_control_cost(
      std::uint32_t bits, std::uint64_t addr_range_words) const;

  /// Empirical sustained-bandwidth table for the device DRAM.
  [[nodiscard]] const membench::BandwidthTable& bandwidth() const {
    return bandwidth_;
  }
  /// Empirical host-link sustained bandwidth (bytes/s) for a transfer size.
  [[nodiscard]] double host_sustained(std::uint64_t bytes) const;

  [[nodiscard]] const target::DeviceDesc& device() const { return device_; }

  /// device_fingerprint(device()), computed once when the database is
  /// calibrated or loaded: per-lookup cache keying reads it for free.
  [[nodiscard]] std::uint64_t fingerprint() const { return fingerprint_; }

  /// Wall-clock seconds the calibration itself took (one-time cost).
  [[nodiscard]] double calibration_seconds() const { return calib_seconds_; }

  /// Integer probe widths used for polynomial fitting (as in Fig. 9).
  static constexpr std::array<int, 4> kIntProbeWidths{8, 18, 32, 64};

  /// The fitted law for an op on integer operands (for inspection/tests).
  [[nodiscard]] const OpLaw& int_law(ir::Opcode op) const;

  /// Serializes the complete database — device description, every fitted
  /// law, the empirical bandwidth tables and the original calibration
  /// time — into a snapshot payload, so a later process skips the
  /// calibration experiments entirely.
  void save(binio::Encoder& enc) const;

  /// Decodes a database written by save(). Every count, enum value and
  /// model shape is validated; malformed payloads come back as a
  /// diagnostic, never an exception or a half-trusted database.
  static tytra::Result<DeviceCostDb> load(binio::Decoder& dec);

 private:
  target::DeviceDesc device_;
  std::uint64_t fingerprint_{0};
  std::map<ir::Opcode, OpLaw> int_laws_;
  /// Float cores are fixed-function: direct probe per (op, width).
  std::map<std::pair<ir::Opcode, int>, ResourceVec> float_costs_;
  membench::BandwidthTable bandwidth_;
  tytra::PiecewiseLinear host_bw_;  ///< log2(bytes) -> bytes/s
  double calib_seconds_{0};
};

}  // namespace tytra::cost
