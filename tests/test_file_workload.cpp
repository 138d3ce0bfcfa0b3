// Tests for the file-backed workload path: the `.tir` loader, the
// `!ND<k>` re-parameterization contract, lane replication equivalence
// against the built-in kernels, registry integration, and the one-load-
// per-(file, nd) contract of the registered hooks. The golden
// test pins the acceptance criterion: a file-backed SOR sweep is
// byte-identical to the built-in `sor` workload on every device preset
// and across thread counts.

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "tytra/dse/session.hpp"
#include "tytra/kernels/file_workload.hpp"
#include "tytra/kernels/registry.hpp"
#include "tytra/support/failpoint.hpp"
#include "tytra/target/device.hpp"

namespace {

using namespace tytra;

#ifdef TYTRA_SOURCE_DIR
std::string source_dir() { return TYTRA_SOURCE_DIR; }
#else
std::string source_dir() { return {}; }
#endif

std::string read_file_or_empty(const std::string& path) {
  std::ifstream in(path);
  if (!in) return {};
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string sor_tir() {
  static const std::string text =
      read_file_or_empty(source_dir() + "/examples/ir/sor.tir");
  return text;
}

/// A minimal fixed-size (no !ND<k>) design.
constexpr const char* kFixedIr = R"(!name = fixed
!ngs = 64
memobj @m_a global ui18 x 64
memobj @m_b global ui18 x 64
stream @s_a reads @m_a pattern cont
stream @s_b writes @m_b pattern cont
@main.a = addrSpace(1) ui18, !"istream", !"CONT", !0, !"s_a"
@main.b = addrSpace(1) ui18, !"ostream", !"CONT", !0, !"s_b"
define void @f0(ui18 %a, ui18 %b) pipe {
  ui18 %t1 = add ui18 %a, 1
  ui18 @b = mov ui18 %t1
}
define void @main() pipe {
  call @f0(@a, @b) pipe
}
)";

std::string sweep_output(dse::Session& session, const dse::Job& job,
                         bool pareto = true) {
  const dse::DseResult r = session.explore(job);
  std::string out = dse::format_sweep(r);
  if (pareto) out += dse::format_pareto(r);
  return out;
}

}  // namespace

TEST(FileWorkload, LoaderReadsNdConstantsAndDigest) {
  ASSERT_FALSE(sor_tir().empty()) << "examples/ir/sor.tir not found under "
                                  << source_dir();
  auto loaded = kernels::load_file_workload(sor_tir());
  ASSERT_TRUE(loaded.ok()) << loaded.error_message();
  const kernels::FileWorkload& fw = loaded.value();
  EXPECT_EQ(fw.default_nd, 24u);
  ASSERT_EQ(fw.nd_constants.size(), 1u);
  EXPECT_EQ(fw.nd_constants.front(), "nd1");
  EXPECT_EQ(fw.baseline->meta.global_size, 24ull * 24 * 24);
  EXPECT_EQ(fw.baseline->meta.nki, 10u);
  // The fingerprint is the structural digest rendered as text.
  EXPECT_EQ(fw.fingerprint.rfind("tir/digest=", 0), 0u) << fw.fingerprint;
}

TEST(FileWorkload, NdOverrideRederivesEverySize) {
  auto loaded = kernels::load_file_workload(sor_tir(), 64);
  ASSERT_TRUE(loaded.ok()) << loaded.error_message();
  const kernels::FileWorkload& fw = loaded.value();
  EXPECT_EQ(fw.default_nd, 24u);  // the file's own value, not the override
  EXPECT_EQ(fw.baseline->meta.global_size, 64ull * 64 * 64);
  for (const auto& mo : fw.baseline->memobjs) {
    EXPECT_EQ(mo.size_words, 64ull * 64 * 64) << mo.name;
  }
  // A different dimension is a different design.
  auto base = kernels::load_file_workload(sor_tir());
  ASSERT_TRUE(base.ok());
  EXPECT_NE(fw.fingerprint, base.value().fingerprint);
}

TEST(FileWorkload, FixedSizeDesignRejectsNdOverride) {
  auto ok = kernels::load_file_workload(kFixedIr);
  ASSERT_TRUE(ok.ok()) << ok.error_message();
  EXPECT_EQ(ok.value().default_nd, 1u);
  EXPECT_TRUE(ok.value().nd_constants.empty());
  EXPECT_EQ(ok.value().baseline->meta.global_size, 64u);

  auto same = kernels::load_file_workload(kFixedIr, 1);
  EXPECT_TRUE(same.ok()) << same.error_message();

  auto bad = kernels::load_file_workload(kFixedIr, 32);
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.error_message().find("fixed-size"), std::string::npos)
      << bad.error_message();
}

TEST(FileWorkload, LoaderReportsStructuredErrors) {
  // Lexical/syntactic failure carries a location.
  auto parse_err = kernels::load_file_workload("!ngs = \n");
  ASSERT_FALSE(parse_err.ok());
  EXPECT_TRUE(parse_err.diag().loc.known()) << parse_err.error_message();

  // Semantic (verifier) failure: @main missing.
  auto no_main = kernels::load_file_workload("!ngs = 8\n");
  ASSERT_FALSE(no_main.ok());
  EXPECT_NE(no_main.error_message().find("main"), std::string::npos)
      << no_main.error_message();

  // A parseable, verifiable module with no NDRange is not explorable.
  auto no_ngs = kernels::load_file_workload(
      "define void @main() pipe {\n}\n");
  ASSERT_FALSE(no_ngs.ok());
}

TEST(FileWorkload, RegistryRejectsDuplicatesWithStructuredError) {
  kernels::Registry reg;
  auto first = kernels::register_file_workload(reg, "design", "a.tir",
                                               kFixedIr);
  ASSERT_TRUE(first.ok()) << first.error_message();
  EXPECT_EQ(first.value()->source, "a.tir");
  EXPECT_EQ(first.value()->default_nd, 1u);

  auto dup = kernels::register_file_workload(reg, "design", "b.tir",
                                             kFixedIr);
  ASSERT_FALSE(dup.ok());
  EXPECT_NE(dup.error_message().find("already registered"), std::string::npos)
      << dup.error_message();

  // try_add on the registry itself reports the same structured error.
  kernels::WorkloadInfo info = *reg.find("design");
  auto again = reg.try_add(std::move(info));
  ASSERT_FALSE(again.ok());
  EXPECT_NE(again.error_message().find("already registered"),
            std::string::npos);
}

TEST(FileWorkload, RegisteredWorkloadMakesExplorableJobs) {
  kernels::Registry reg;
  auto added =
      kernels::register_file_workload(reg, "sor-file", "sor.tir", sor_tir());
  ASSERT_TRUE(added.ok()) << added.error_message();

  auto n = added.value()->ndrange(64);
  ASSERT_TRUE(n.ok()) << n.error_message();
  EXPECT_EQ(n.value(), 64ull * 64 * 64);
  EXPECT_FALSE(n.ok() && reg.make_job("sor-file", 0).ok());

  auto job = reg.make_job("sor-file", 64);
  ASSERT_TRUE(job.ok()) << job.error_message();
  EXPECT_EQ(job.value().n, 64ull * 64 * 64);
}

TEST(FileWorkload, RegistrationByPathIsIdempotent) {
  kernels::Registry reg;
  const std::string path = source_dir() + "/examples/ir/sor.tir";
  auto first = kernels::register_file_workload(reg, path);
  ASSERT_TRUE(first.ok()) << first.error_message();
  auto second = kernels::register_file_workload(reg, path);
  ASSERT_TRUE(second.ok()) << second.error_message();
  EXPECT_EQ(first.value(), second.value());

  auto missing = kernels::register_file_workload(reg, "no/such/file.tir");
  ASSERT_FALSE(missing.ok());
  EXPECT_NE(missing.error_message().find("cannot read"), std::string::npos);
}

// The load contract: each design loads once per (file, nd) per process.
// `workload.parse` fires on every load, so armed at 100% it fails (and
// counts) exactly the loads a make_job still performs.
TEST(FileWorkload, EachDesignLoadsOncePerDimension) {
  const std::vector<std::string> files = {"sor.tir", "blur.tir",
                                          "dotacc.tir"};
  failpoint::reset();
  kernels::Registry reg;
  for (const auto& f : files) {
    const std::string path = source_dir() + "/examples/ir/" + f;
    auto added = kernels::register_file_workload(reg, path);
    ASSERT_TRUE(added.ok()) << added.error_message();
  }
  ASSERT_EQ(failpoint::fired_count(), 0u);

  // The registration load answers make_job at each default nd.
  failpoint::arm("workload.parse", 100);
  for (const auto& f : files) {
    const std::string path = source_dir() + "/examples/ir/" + f;
    auto job = reg.make_job(path, reg.find(path)->default_nd);
    EXPECT_TRUE(job.ok()) << f << ": " << job.error_message();
  }
  EXPECT_EQ(failpoint::fired_count(), 0u);

  // A new nd loads, and the failure names the file.
  const std::string sor = source_dir() + "/examples/ir/sor.tir";
  auto failed = reg.make_job(sor, 64);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failpoint::fired_count(), 1u);
  EXPECT_EQ(failed.diag().message.rfind(sor + ": injected fault", 0), 0u)
      << failed.diag().message;
  // The failed load left the slot holding the default nd.
  EXPECT_TRUE(reg.make_job(sor, 24).ok());
  EXPECT_EQ(failpoint::fired_count(), 1u);

  // One load at nd 64 serves ndrange and make_lowerer, and a repeat.
  failpoint::arm("workload.parse", 0);
  auto loaded = reg.make_job(sor, 64);
  ASSERT_TRUE(loaded.ok()) << loaded.error_message();
  failpoint::arm("workload.parse", 100);
  auto again = reg.make_job(sor, 64);
  ASSERT_TRUE(again.ok()) << again.error_message();
  EXPECT_EQ(again.value().n, 64ull * 64 * 64);
  EXPECT_EQ(failpoint::fired_count(), 1u);
  failpoint::reset();

  // The lowerer's fingerprint is the memoized load's digest.
  auto direct = kernels::load_file_workload(sor_tir(), 64);
  ASSERT_TRUE(direct.ok()) << direct.error_message();
  const auto* keyed =
      dynamic_cast<const dse::KeyedLowerer*>(again.value().lower.get());
  ASSERT_NE(keyed, nullptr);
  EXPECT_EQ(keyed->fingerprint(),
            kernels::file_lowerer(direct.value().baseline).fingerprint());
}

// The hooks' shared slot is locked: make_job from several threads at
// different dimensions gives each job the size and fingerprint of a
// load at its own dimension.
TEST(FileWorkload, ConcurrentMakeJobsKeepTheirDimension) {
  kernels::Registry reg;
  auto added =
      kernels::register_file_workload(reg, "sor-file", "sor.tir", sor_tir());
  ASSERT_TRUE(added.ok()) << added.error_message();
  const std::vector<std::uint32_t> nds = {16, 24, 32, 48};
  std::map<std::uint32_t, std::string> fingerprints;
  for (const std::uint32_t nd : nds) {
    auto loaded = kernels::load_file_workload(sor_tir(), nd);
    ASSERT_TRUE(loaded.ok()) << loaded.error_message();
    fingerprints[nd] = loaded.value().fingerprint;
  }

  std::vector<int> wrong(nds.size(), 0);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < nds.size(); ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = 0; i < 50; ++i) {
        const std::uint32_t nd = nds[(t + i) % nds.size()];
        auto job = reg.make_job("sor-file", nd);
        const auto* keyed =
            job.ok() ? dynamic_cast<const dse::KeyedLowerer*>(
                           job.value().lower.get())
                     : nullptr;
        if (keyed == nullptr ||
            job.value().n != std::uint64_t{nd} * nd * nd ||
            keyed->fingerprint() != fingerprints.at(nd)) {
          ++wrong[t];
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (std::size_t t = 0; t < nds.size(); ++t) {
    EXPECT_EQ(wrong[t], 0) << "thread " << t;
  }
}

// The acceptance criterion: the file-backed SOR sweeps byte-identically
// to the built-in `sor` workload — same variants, same costs, same
// Pareto frontier — on every device preset, serial and parallel.
TEST(FileWorkload, SweepByteIdenticalToBuiltinSorOnAllPresets) {
  auto loaded = kernels::load_file_workload(sor_tir(), 64);
  ASSERT_TRUE(loaded.ok()) << loaded.error_message();

  for (const auto& preset_name : target::preset_names()) {
    const auto desc = target::preset(preset_name);
    ASSERT_TRUE(desc.has_value());
    for (const std::uint32_t threads : {1u, 8u}) {
      dse::SessionOptions so;
      so.max_lanes = 16;
      so.num_threads = threads;
      so.enable_cache = false;  // what the CLI's one-shot explore uses
      dse::Session session(so);
      session.add_device(*desc);

      auto builtin = kernels::Registry::instance().make_job("sor", 64);
      ASSERT_TRUE(builtin.ok()) << builtin.error_message();

      dse::Job file_job;
      file_job.workload = "sor-file";
      file_job.n = loaded.value().baseline->meta.global_size;
      file_job.lower = std::make_shared<dse::KeyedLowerer>(
          kernels::file_lowerer(loaded.value().baseline));

      EXPECT_EQ(sweep_output(session, file_job),
                sweep_output(session, builtin.value()))
          << "preset " << preset_name << ", " << threads << " thread(s)";
    }
  }
}
