#pragma once

// The benchmark corpus, made from the workload seed: the three built-in
// kernels at seven sizes on the three device presets, 200 seeded
// generator designs, and the example `.tir` files. Also the renderings
// the tools print, so in-process reference runs can be compared with
// tytra-cc and tytra-dsed output byte for byte.

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "tytra/cost/calibration.hpp"
#include "tytra/dse/session.hpp"
#include "tytra/ir/module.hpp"
#include "tytra/target/device.hpp"

namespace perfbench {

namespace cost = tytra::cost;
namespace dse = tytra::dse;
namespace ir = tytra::ir;
namespace target = tytra::target;

inline constexpr std::array<const char*, 3> kKernels = {"sor", "hotspot",
                                                        "lavamd"};
inline constexpr std::array<std::uint32_t, 7> kNds = {16, 24, 32, 48,
                                                      64, 96, 128};
inline constexpr std::array<const char*, 3> kPresets = {
    "stratix-v-gsd8", "virtex7-690t", "fig15"};
inline constexpr std::array<const char*, 3> kExampleIrs = {
    "examples/ir/sor.tir", "examples/ir/blur.tir", "examples/ir/dotacc.tir"};
inline constexpr std::size_t kGenDesigns = 200;
inline constexpr std::uint32_t kMaxLanes = 16;

/// Seeds for `count` generator designs, drawn from the workload seed.
std::vector<std::uint64_t> design_seeds(std::uint64_t seed, std::size_t count);

struct Corpus {
  std::deque<cost::DeviceCostDb> dbs;  ///< one per preset, stable addresses
  /// Built-ins in `tytra-cc campaign` order: kernel, then nd, then device.
  std::vector<dse::Job> builtin;
  std::vector<std::shared_ptr<const ir::Module>> gen_modules;
  std::vector<dse::Job> gen;    ///< generator designs on the first preset
  std::vector<dse::Job> files;  ///< examples/ir on the first preset

  [[nodiscard]] dse::Campaign campaign() const;
};

/// Calibrates the presets and builds every job. Each call is a full
/// set-up: generator designs and calibrations are made afresh.
Corpus build_corpus(std::uint64_t seed, const std::string& repo_dir);

/// `tytra-cc campaign --pareto` arguments for the built-in part.
std::vector<std::string> cli_campaign_args();

/// Session options of the reference engine: no cache, one thread.
dse::SessionOptions reference_options();

/// Variants a campaign answered.
std::size_t answered(const dse::CampaignResult& r);

/// format_campaign + format_campaign_pareto.
std::string render_campaign(const dse::CampaignResult& r);
/// What `tytra-cc campaign --pareto` prints.
std::string render_campaign_cli(const dse::CampaignResult& r,
                                std::size_t kernels, std::size_t devices);
/// What `tytra-cc explore` prints (with --pareto when `pareto`).
std::string render_explore_cli(std::string_view kernel,
                               std::string_view device,
                               const dse::DseResult& r, bool pareto);

/// Reference answers that do not depend on the seed, normalized: the
/// built-in campaign as `tytra-cc campaign --pareto` prints it, and
/// `tytra-cc explore sor --nd 64` on the first preset.
struct BuiltinRefs {
  std::string campaign;
  std::size_t campaign_variants{0};
  std::string explore;
  std::size_t explore_variants{0};

  /// Checked against perfbench/expected.json on every seed.
  [[nodiscard]] std::uint64_t digest() const;
};
BuiltinRefs builtin_references(const Corpus& corpus);

/// Calls to Lowerer::lower and their time, summed over calling threads.
class LowerLog {
 public:
  void add(double seconds);
  [[nodiscard]] std::uint64_t calls() const;
  [[nodiscard]] double seconds() const;

 private:
  mutable std::mutex mu_;
  double seconds_{0};         // guarded by mu_
  std::uint64_t calls_{0};    // guarded by mu_
};

/// The campaign with every job's lowerer wrapped in a forwarding one that
/// logs each lower() call and opens a "kernels.lower" span. Keys are
/// forwarded unchanged, so the cache sees exactly the same identities.
dse::Campaign wrap_lowerers(const dse::Campaign& c, LowerLog* log);

/// The cost model against the cycle simulator on every merged-Pareto
/// design: cycles per instance must agree within 12%. Returns the number
/// of designs checked; `worst_pct` receives the largest error seen and
/// `why` names the first design outside the band.
std::size_t sim_band_check(const dse::CampaignResult& r, double* worst_pct,
                           std::string* why);

}  // namespace perfbench
