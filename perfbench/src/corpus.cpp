#include "corpus.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common.hpp"
#include "tytra/cost/report.hpp"
#include "tytra/dse/explorer.hpp"
#include "tytra/kernels/file_workload.hpp"
#include "tytra/kernels/generator.hpp"
#include "tytra/kernels/registry.hpp"
#include "tytra/sim/cycle_model.hpp"
#include "tytra/support/rng.hpp"

namespace perfbench {

using namespace tytra;

std::vector<std::uint64_t> design_seeds(std::uint64_t seed,
                                        std::size_t count) {
  SplitMix64 rng(seed * 0x9e3779b97f4a7c15ULL);
  std::vector<std::uint64_t> out(count);
  for (auto& s : out) s = rng.next_u64();
  return out;
}

namespace {

std::string read_text(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

dse::Job registry_job(std::string_view name, std::uint32_t nd) {
  auto job = kernels::Registry::instance().make_job(name, nd);
  if (!job.ok()) throw std::runtime_error(job.error_message());
  return std::move(job).take();
}

}  // namespace

dse::Campaign Corpus::campaign() const {
  dse::Campaign c;
  c.jobs = builtin;
  c.jobs.insert(c.jobs.end(), gen.begin(), gen.end());
  c.jobs.insert(c.jobs.end(), files.begin(), files.end());
  return c;
}

Corpus build_corpus(std::uint64_t seed, const std::string& repo_dir) {
  Corpus c;
  for (const char* name : kPresets) {
    const auto desc = target::preset(name);
    if (!desc) throw std::runtime_error(std::string("no preset ") + name);
    c.dbs.push_back(cost::DeviceCostDb::calibrate(*desc));
  }
  for (const char* kernel : kKernels) {
    for (const std::uint32_t nd : kNds) {
      const dse::Job base = registry_job(kernel, nd);
      for (const auto& db : c.dbs) {
        dse::Job job = base;
        job.device = db.device().name;
        job.db = &db;
        c.builtin.push_back(std::move(job));
      }
    }
  }
  const auto seeds = design_seeds(seed, kGenDesigns);
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    auto module =
        std::make_shared<const ir::Module>(kernels::generate_kernel(seeds[i]));
    dse::Job job;
    char name[32];
    std::snprintf(name, sizeof name, "gen%03zu", i);
    job.workload = name;
    job.n = module->meta.global_size;
    job.lower =
        std::make_shared<dse::KeyedLowerer>(kernels::file_lowerer(module));
    job.device = c.dbs.front().device().name;
    job.db = &c.dbs.front();
    c.gen_modules.push_back(std::move(module));
    c.gen.push_back(std::move(job));
  }
  auto& registry = kernels::Registry::instance();
  for (const char* path : kExampleIrs) {
    const kernels::WorkloadInfo* info = registry.find(path);
    if (info == nullptr) {
      auto added = kernels::register_file_workload(
          registry, path, path, read_text(repo_dir + "/" + path));
      if (!added.ok()) throw std::runtime_error(added.error_message());
      info = added.value();
    }
    dse::Job job = registry_job(path, info->default_nd);
    job.device = c.dbs.front().device().name;
    job.db = &c.dbs.front();
    c.files.push_back(std::move(job));
  }
  return c;
}

std::vector<std::string> cli_campaign_args() {
  std::vector<std::string> args = {"campaign"};
  for (const char* k : kKernels) args.insert(args.end(), {"--kernel", k});
  for (const auto nd : kNds) {
    args.insert(args.end(), {"--nd", std::to_string(nd)});
  }
  for (const char* d : kPresets) args.insert(args.end(), {"--device", d});
  args.emplace_back("--pareto");
  return args;
}

dse::SessionOptions reference_options() {
  dse::SessionOptions so;
  so.max_lanes = kMaxLanes;
  so.num_threads = 1;
  so.enable_cache = false;
  return so;
}

std::size_t answered(const dse::CampaignResult& r) {
  std::size_t n = 0;
  for (const auto& jr : r.jobs) n += jr.result.entries.size();
  return n;
}

std::string render_campaign(const dse::CampaignResult& r) {
  return dse::format_campaign(r) + dse::format_campaign_pareto(r);
}

std::string render_campaign_cli(const dse::CampaignResult& r,
                                std::size_t kernels, std::size_t devices) {
  char head[160];
  std::snprintf(head, sizeof head,
                "campaign: %zu jobs (%zu kernels x %zu device(s)) in %.3f s\n",
                r.jobs.size(), kernels, devices, r.campaign_seconds);
  return head + dse::format_campaign(r) +
         "\nmerged pareto frontier across all jobs:\n" +
         dse::format_campaign_pareto(r);
}

std::string render_explore_cli(std::string_view kernel,
                               std::string_view device,
                               const dse::DseResult& r, bool pareto) {
  char head[256];
  std::snprintf(head, sizeof head,
                "exploring %.*s on %.*s: %zu variants in %.3f s\n",
                static_cast<int>(kernel.size()), kernel.data(),
                static_cast<int>(device.size()), device.data(),
                r.entries.size(), r.explore_seconds);
  std::string out = head + dse::format_sweep(r);
  if (pareto) {
    out += "\npareto frontier (EKIT vs utilization vs bandwidth share):\n";
    out += dse::format_pareto(r);
  }
  return out;
}

std::uint64_t BuiltinRefs::digest() const {
  return fnv1a(explore, fnv1a(campaign));
}

BuiltinRefs builtin_references(const Corpus& corpus) {
  BuiltinRefs refs;
  dse::Session ref(reference_options());
  dse::Campaign builtin;
  builtin.jobs = corpus.builtin;
  const dse::CampaignResult b = ref.run(builtin);
  refs.campaign =
      normalize(render_campaign_cli(b, kKernels.size(), kPresets.size()));
  refs.campaign_variants = answered(b);

  dse::Job sor = registry_job("sor", 64);
  sor.db = &corpus.dbs.front();
  const dse::DseResult e = ref.explore(sor);
  refs.explore = normalize(
      render_explore_cli("sor", corpus.dbs.front().device().name, e, false));
  refs.explore_variants = e.entries.size();
  return refs;
}

void LowerLog::add(double seconds) {
  std::lock_guard<std::mutex> lock(mu_);
  seconds_ += seconds;
  ++calls_;
}

std::uint64_t LowerLog::calls() const {
  std::lock_guard<std::mutex> lock(mu_);
  return calls_;
}

double LowerLog::seconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  return seconds_;
}

namespace {

class LoggedLowerer final : public dse::Lowerer {
 public:
  LoggedLowerer(std::shared_ptr<const dse::Lowerer> inner, LowerLog* log)
      : inner_(std::move(inner)), log_(log) {}

  [[nodiscard]] std::optional<dse::VariantKey> key(
      const frontend::Variant& v) const override {
    return inner_->key(v);
  }
  [[nodiscard]] ir::Module lower(const frontend::Variant& v,
                                 ir::BuildArena* arena) const override {
    Span span("kernels.lower");
    const double t0 = now_s();
    ir::Module m = inner_->lower(v, arena);
    log_->add(now_s() - t0);
    return m;
  }

 private:
  std::shared_ptr<const dse::Lowerer> inner_;
  LowerLog* log_;
};

}  // namespace

dse::Campaign wrap_lowerers(const dse::Campaign& c, LowerLog* log) {
  dse::Campaign out = c;
  for (auto& job : out.jobs) {
    job.lower = std::make_shared<LoggedLowerer>(job.lower, log);
  }
  return out;
}

std::size_t sim_band_check(const dse::CampaignResult& r, double* worst_pct,
                           std::string* why) {
  constexpr double kBandPct = 12.0;
  std::size_t checked = 0;
  double worst = 0;
  for (const auto& p : r.pareto) {
    const dse::Job& job = r.jobs[p.job].job;
    const dse::DseEntry& e = r.entry(p);
    const ir::Module m = job.lower->lower(e.variant);
    const double est = e.report.throughput.cycles_per_instance;
    const double act =
        sim::simulate_timing(m, job.db->device()).cycles_per_instance;
    const double err = act > 0 ? std::fabs(act - est) / act * 100 : 100;
    worst = std::max(worst, err);
    ++checked;
    if (err >= kBandPct && why != nullptr && why->empty()) {
      *why = job.workload + " nd=" + std::to_string(job.nd) + " on " +
             job.device + " at " + std::to_string(e.report.params.knl) +
             " lanes: model " + std::to_string(est) + " vs sim " +
             std::to_string(act) + " cycles";
    }
  }
  if (worst_pct) *worst_pct = worst;
  return checked;
}

}  // namespace perfbench
