// End-to-end tests of the snapshot surface of the real tytra-cc binary:
// `--snapshot` warm starts (byte-identical output, variant-level hits in a
// genuinely separate process), the `cache dump|load|inspect|verify`
// subcommands, graceful degradation on every kind of corrupt snapshot, and
// the unified error contract (malformed invocations exit nonzero with a
// one-line stderr diagnostic and no stdout).

#include <gtest/gtest.h>
#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "tytra/support/binio.hpp"

namespace {

#if defined(TYTRA_CC_BIN) && defined(TYTRA_SOURCE_DIR)

struct RunResult {
  int exit_code{-1};
  std::string out;
  std::string err;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Runs tytra-cc with `args`, capturing stdout/stderr through temp files.
/// Each invocation is a fresh process: warm-start tests exercise the real
/// save-in-one-process, load-in-another path.
RunResult run_cc(const std::string& args, const std::string& failpoints = {}) {
  static int counter = 0;
  const std::string tag = "cli_snap_" + std::to_string(counter++);
  const std::string out_path = tag + ".out";
  const std::string err_path = tag + ".err";
  std::string cmd;
  if (!failpoints.empty()) cmd += "TYTRA_FAILPOINTS='" + failpoints + "' ";
  cmd += std::string(TYTRA_CC_BIN) + " " + args + " > " + out_path + " 2> " +
         err_path;
  const int status = std::system(cmd.c_str());
  RunResult r;
  r.exit_code = status < 0 ? status : WEXITSTATUS(status);
  r.out = read_file(out_path);
  r.err = read_file(err_path);
  std::remove(out_path.c_str());
  std::remove(err_path.c_str());
  return r;
}

/// A unique snapshot path in the ctest working directory, removed on
/// destruction.
struct TempSnap {
  explicit TempSnap(const std::string& tag) {
    static int counter = 0;
    path = tag + "_" + std::to_string(counter++) + ".snap";
    std::remove(path.c_str());
  }
  ~TempSnap() { std::remove(path.c_str()); }
  std::string path;
};

std::string sor_tir_path() {
  return std::string(TYTRA_SOURCE_DIR) + "/examples/ir/sor.tir";
}

/// Drops the first line (the banner carries wall-clock timings; the tables
/// below it are deterministic).
std::string strip_banner(const std::string& text) {
  const auto nl = text.find('\n');
  return nl == std::string::npos ? std::string() : text.substr(nl + 1);
}

/// Extracts the integer right after `"<field>": ` in a JSON dump. The JSON
/// renderer is our own fixed-format printer, so a text scan is reliable.
long json_int_field(const std::string& json, const std::string& field,
                    std::size_t from = 0) {
  const std::string needle = "\"" + field + "\": ";
  const auto at = json.find(needle, from);
  if (at == std::string::npos) return -1;
  return std::strtol(json.c_str() + at + needle.size(), nullptr, 10);
}

/// Asserts the unified malformed-invocation contract: nonzero exit, empty
/// stdout, exactly one stderr line mentioning `expect`.
void expect_clean_failure(const std::string& args, const std::string& expect) {
  const RunResult r = run_cc(args);
  EXPECT_NE(r.exit_code, 0) << args;
  EXPECT_TRUE(r.out.empty()) << args << " wrote to stdout: " << r.out;
  EXPECT_NE(r.err.find(expect), std::string::npos)
      << args << " stderr: " << r.err;
  EXPECT_EQ(std::count(r.err.begin(), r.err.end(), '\n'), 1)
      << args << " stderr is not one line: " << r.err;
}

// ---------------------------------------------------------------------------
// Warm starts
// ---------------------------------------------------------------------------

TEST(CliSnapshot, ExploreWarmStartByteIdenticalAcrossKernelsAndPresets) {
  for (const std::string kernel : {"sor", "hotspot", "lavamd"}) {
    for (const std::string preset :
         {"stratix-v-gsd8", "virtex7-690t", "fig15"}) {
      TempSnap snap("warm_" + kernel + "_" + preset);
      const std::string args = "explore " + kernel +
                               " --nd 16 --pareto --device " + preset +
                               " --snapshot " + snap.path;
      const RunResult cold = run_cc(args);
      ASSERT_EQ(cold.exit_code, 0) << cold.err;
      const RunResult warm = run_cc(args);
      ASSERT_EQ(warm.exit_code, 0) << warm.err;
      EXPECT_EQ(strip_banner(warm.out), strip_banner(cold.out))
          << kernel << " on " << preset;
      EXPECT_FALSE(strip_banner(cold.out).empty());
    }
  }
}

TEST(CliSnapshot, ExploreWarmStartHitsVariantLevel) {
  TempSnap snap("warm_json");
  const std::string args =
      "explore sor --nd 32 --json --snapshot " + snap.path;
  const RunResult cold = run_cc(args);
  ASSERT_EQ(cold.exit_code, 0) << cold.err;
  EXPECT_EQ(json_int_field(cold.out, "variant_hits"), 0);
  EXPECT_GT(json_int_field(cold.out, "misses"), 0);

  const RunResult warm = run_cc(args);
  ASSERT_EQ(warm.exit_code, 0) << warm.err;
  EXPECT_GT(json_int_field(warm.out, "variant_hits"), 0)
      << "second process did not warm-start at the variant-key level: "
      << warm.out;
  EXPECT_EQ(json_int_field(warm.out, "misses"), 0) << warm.out;
}

TEST(CliSnapshot, TuneWarmStartByteIdentical) {
  TempSnap snap("warm_tune");
  const std::string args = "tune hotspot --nd 16 --snapshot " + snap.path;
  const RunResult cold = run_cc(args);
  ASSERT_EQ(cold.exit_code, 0) << cold.err;
  const RunResult warm = run_cc(args);
  ASSERT_EQ(warm.exit_code, 0) << warm.err;
  EXPECT_EQ(strip_banner(warm.out), strip_banner(cold.out));
}

TEST(CliSnapshot, CampaignWarmStartAcrossProcesses) {
  TempSnap snap("warm_campaign");
  const std::string args =
      "campaign --kernel sor --kernel hotspot --nd 16 --json --snapshot " +
      snap.path;
  const RunResult cold = run_cc(args);
  ASSERT_EQ(cold.exit_code, 0) << cold.err;
  const RunResult warm = run_cc(args);
  ASSERT_EQ(warm.exit_code, 0) << warm.err;
  // The campaign-level totals live under "cache": every variant of every
  // job must be answered from the restored snapshot.
  const auto cache_at = warm.out.find("\"cache\"");
  ASSERT_NE(cache_at, std::string::npos) << warm.out;
  EXPECT_GT(json_int_field(warm.out, "variant_hits", cache_at), 0)
      << warm.out;
  EXPECT_EQ(json_int_field(warm.out, "misses", cache_at), 0) << warm.out;
}

TEST(CliSnapshot, FileWorkloadWarmStartByteIdentical) {
  // The .tir-file path fingerprints the workload by content digest, so its
  // cache entries must survive a snapshot round trip like built-ins do.
  TempSnap snap("warm_tir");
  const std::string args = "explore --ir " + sor_tir_path() +
                           " --nd 32 --json --snapshot " + snap.path;
  const RunResult cold = run_cc(args);
  ASSERT_EQ(cold.exit_code, 0) << cold.err;
  const RunResult warm = run_cc(args);
  ASSERT_EQ(warm.exit_code, 0) << warm.err;
  EXPECT_GT(json_int_field(warm.out, "variant_hits"), 0) << warm.out;
  EXPECT_EQ(json_int_field(warm.out, "misses"), 0) << warm.out;
}

// ---------------------------------------------------------------------------
// cache subcommands
// ---------------------------------------------------------------------------

TEST(CliSnapshot, CacheDumpVerifyInspectLoad) {
  TempSnap snap("cache_cycle");
  const RunResult dump =
      run_cc("cache dump " + snap.path + " --kernel sor --nd 16");
  ASSERT_EQ(dump.exit_code, 0) << dump.err;
  EXPECT_NE(dump.out.find("snapshot: wrote " + snap.path), std::string::npos)
      << dump.out;

  const RunResult verify = run_cc("cache verify " + snap.path);
  EXPECT_EQ(verify.exit_code, 0) << verify.err;
  EXPECT_NE(verify.out.find("ok: " + snap.path), std::string::npos)
      << verify.out;

  const RunResult inspect = run_cc("cache inspect " + snap.path);
  EXPECT_EQ(inspect.exit_code, 0) << inspect.err;
  for (const std::string section : {"meta", "entries", "calibration"}) {
    EXPECT_NE(inspect.out.find("section " + section), std::string::npos)
        << inspect.out;
  }
  EXPECT_EQ(inspect.out.find("structural"), std::string::npos) << inspect.out;
  EXPECT_NE(inspect.out.find("calibration stratix-v-gsd8"), std::string::npos)
      << inspect.out;

  const RunResult load = run_cc("cache load " + snap.path);
  EXPECT_EQ(load.exit_code, 0) << load.err;
  EXPECT_NE(load.out.find("loaded " + snap.path), std::string::npos)
      << load.out;

  // Every action reports one entry count, and they agree.
  const auto entries = [](const std::string& out) {
    const std::size_t at = out.find("entries=");
    return at == std::string::npos ? std::string("missing")
                                   : out.substr(at, out.find(' ', at) - at);
  };
  EXPECT_NE(entries(dump.out), "missing") << dump.out;
  EXPECT_NE(entries(dump.out), "entries=0") << dump.out;
  EXPECT_EQ(entries(verify.out), entries(dump.out)) << verify.out;
  EXPECT_EQ(entries(load.out), entries(dump.out)) << load.out;
  EXPECT_NE(inspect.out.find(entries(dump.out) + "\n"), std::string::npos)
      << inspect.out;
}

TEST(CliSnapshot, VerifyFailsNonzeroOnEveryInjectedCorruption) {
  TempSnap snap("verify_fuzz");
  const RunResult dump =
      run_cc("cache dump " + snap.path + " --kernel sor --nd 16");
  ASSERT_EQ(dump.exit_code, 0) << dump.err;
  const std::string good = read_file(snap.path);
  ASSERT_FALSE(good.empty());

  auto expect_verify_fails = [&](const std::string& what) {
    const RunResult r = run_cc("cache verify " + snap.path);
    EXPECT_NE(r.exit_code, 0) << what << " passed verify";
    EXPECT_TRUE(r.out.empty()) << what << " stdout: " << r.out;
    EXPECT_FALSE(r.err.empty()) << what << " produced no diagnostic";
  };

  // Truncations at a spread of byte counts, including mid-header.
  for (const std::size_t len :
       {std::size_t{0}, std::size_t{10}, good.size() / 2, good.size() - 1}) {
    write_file(snap.path, good.substr(0, len));
    expect_verify_fails("truncation to " + std::to_string(len));
  }
  // Bit flips scattered deterministically across the file.
  for (std::size_t i = 0; i < 16; ++i) {
    const std::size_t byte = (i * 2654435761u) % good.size();
    std::string mutated = good;
    mutated[byte] = static_cast<char>(mutated[byte] ^ (1u << (i % 8)));
    write_file(snap.path, mutated);
    expect_verify_fails("bit flip in byte " + std::to_string(byte));
  }
  // A future container version, reported by name.
  {
    std::string mutated = good;
    mutated[8] = static_cast<char>(mutated[8] + 1);
    write_file(snap.path, mutated);
    const RunResult r = run_cc("cache verify " + snap.path);
    EXPECT_NE(r.exit_code, 0);
    EXPECT_NE(r.err.find("unsupported format version"), std::string::npos)
        << r.err;
  }
  // Not a container at all, and a missing file.
  write_file(snap.path, "junk");
  expect_verify_fails("garbage file");
  std::remove(snap.path.c_str());
  expect_verify_fails("missing file");

  // The pristine bytes still verify (the harness, not the tool, mutated).
  write_file(snap.path, good);
  EXPECT_EQ(run_cc("cache verify " + snap.path).exit_code, 0);
}

TEST(CliSnapshot, CorruptSnapshotDegradesToColdExitZero) {
  TempSnap snap("degrade");
  const std::string args =
      "explore sor --nd 16 --pareto --snapshot " + snap.path;
  const RunResult cold = run_cc(args);
  ASSERT_EQ(cold.exit_code, 0) << cold.err;
  const std::string good = read_file(snap.path);
  ASSERT_FALSE(good.empty());

  std::string mutated = good;
  mutated[good.size() / 2] ^= 0x40;
  write_file(snap.path, mutated);
  const RunResult degraded = run_cc(args);
  EXPECT_EQ(degraded.exit_code, 0)
      << "corrupt snapshot crashed the run: " << degraded.err;
  EXPECT_EQ(strip_banner(degraded.out), strip_banner(cold.out))
      << "corrupt snapshot changed the results";
  EXPECT_NE(degraded.err.find("warning: snapshot-load"), std::string::npos)
      << "degradation was silent: " << degraded.err;
  EXPECT_NE(degraded.err.find("action=cold-start"), std::string::npos)
      << degraded.err;

  // The degraded run re-saved a fresh snapshot over the corrupt one; the
  // next run warm-starts again (self-healing, not permanent cold).
  const RunResult healed = run_cc("cache verify " + snap.path);
  EXPECT_EQ(healed.exit_code, 0) << healed.err;
}

/// A hand-built snapshot of an older payload schema: a valid container
/// whose meta section names `version`, with the sections that version
/// wrote: meta, structural, variant and calibration up to v2; meta,
/// entries and calibration in v3.
void write_old_snapshot(const std::string& path, std::uint32_t version) {
  tytra::binio::Writer w;
  tytra::binio::Encoder meta;
  meta.u32(version);
  w.add_section(1, meta.take());
  for (const std::uint32_t id : {2u, 3u, 4u}) {
    if (id != 3 || version < 3) w.add_section(id, {});
  }
  ASSERT_TRUE(w.write(path).ok());
}

TEST(CliSnapshot, OlderPayloadSnapshotsColdStartAndFailVerify) {
  for (const std::uint32_t version : {1u, 2u, 3u}) {
    SCOPED_TRACE("payload v" + std::to_string(version));
    TempSnap snap("payload_old");
    TempSnap fresh("payload_old_cold");
    const std::string args = "explore sor --nd 16 --pareto --snapshot ";
    const RunResult cold = run_cc(args + fresh.path);
    ASSERT_EQ(cold.exit_code, 0) << cold.err;

    write_old_snapshot(snap.path, version);
    const RunResult verify = run_cc("cache verify " + snap.path);
    EXPECT_EQ(verify.exit_code, 1);
    EXPECT_TRUE(verify.out.empty()) << verify.out;
    EXPECT_NE(verify.err.find("payload version " + std::to_string(version) +
                              " unsupported (this build reads 4)"),
              std::string::npos)
        << verify.err;

    const RunResult degraded = run_cc(args + snap.path);
    EXPECT_EQ(degraded.exit_code, 0) << degraded.err;
    EXPECT_EQ(strip_banner(degraded.out), strip_banner(cold.out));
    EXPECT_EQ(std::count(degraded.err.begin(), degraded.err.end(), '\n'), 1)
        << degraded.err;
    EXPECT_NE(degraded.err.find("snapshot-load path='" + snap.path + "'"),
              std::string::npos)
        << degraded.err;
    EXPECT_NE(degraded.err.find("action=cold-start"), std::string::npos)
        << degraded.err;
    // The cold run saved a current snapshot over the old one.
    EXPECT_EQ(run_cc("cache verify " + snap.path).exit_code, 0);
  }
}

/// (inode, mtime) of a file: a rewrite through tmp + rename changes the
/// inode.
std::pair<unsigned long long, long long> inode_mtime(const std::string& path) {
  struct stat st {};
  EXPECT_EQ(::stat(path.c_str(), &st), 0) << path;
  return {static_cast<unsigned long long>(st.st_ino),
          static_cast<long long>(st.st_mtim.tv_sec) * 1000000000LL +
              st.st_mtim.tv_nsec};
}

TEST(CliSnapshot, WarmRunThatAddsNothingLeavesTheSnapshotUntouched) {
  TempSnap snap("rewrite_skip");
  const std::string args =
      "campaign --kernel sor --kernel hotspot --nd 16 --snapshot " + snap.path;
  const RunResult cold = run_cc(args);
  ASSERT_EQ(cold.exit_code, 0) << cold.err;
  const std::string bytes = read_file(snap.path);
  const auto stamp = inode_mtime(snap.path);

  const RunResult warm = run_cc(args);
  ASSERT_EQ(warm.exit_code, 0) << warm.err;
  EXPECT_NE(warm.out.find("/ 0 misses"), std::string::npos) << warm.out;
  EXPECT_EQ(read_file(snap.path), bytes);
  EXPECT_EQ(inode_mtime(snap.path), stamp)
      << "a warm run that added nothing rewrote the snapshot";

  // The save failpoint fires before the skip: a no-op save still fails
  // loudly, before anything reaches stdout.
  const RunResult faulted = run_cc(args, "snapshot.save=100%");
  EXPECT_EQ(faulted.exit_code, 1) << faulted.err;
  EXPECT_TRUE(faulted.out.empty()) << faulted.out;
  EXPECT_NE(faulted.err.find("injected fault"), std::string::npos)
      << faulted.err;

  // A run that adds entries (a new --nd) rewrites the file.
  const RunResult grown = run_cc(args + " --nd 24");
  ASSERT_EQ(grown.exit_code, 0) << grown.err;
  EXPECT_NE(inode_mtime(snap.path).first, stamp.first)
      << "new entries were not written";
  EXPECT_GT(read_file(snap.path).size(), bytes.size());
}

// ---------------------------------------------------------------------------
// Unified error paths
// ---------------------------------------------------------------------------

TEST(CliSnapshot, MalformedInvocationsFailWithOneLineAndNoStdout) {
  expect_clean_failure("explore sor --bogus", "unknown flag '--bogus'");
  expect_clean_failure("explore sor --nd banana",
                       "'banana' is not an unsigned integer");
  expect_clean_failure("explore sor --nd", "--nd requires a value");
  expect_clean_failure("explore sor --snapshot", "--snapshot requires a value");
  expect_clean_failure("explore sor --kernel hotspot",
                       "--kernel only applies to campaign");
  expect_clean_failure("explore no-such-kernel", "unknown kernel");
  expect_clean_failure("frobnicate", "explore|tune|campaign|cache|list");
  // The diagnostic names every subcommand main dispatches on.
  expect_clean_failure(
      "frobnicate", "subcommands are explore|tune|campaign|cache|list|lint|"
                    "ping|shutdown)");
  // The retired --explore spelling is an unknown flag now.
  expect_clean_failure("--explore sor", "unknown or incomplete flag "
                                        "'--explore'");
  EXPECT_EQ(run_cc("--explore sor").exit_code, 2);
  expect_clean_failure("cache", "cache needs an action");
  expect_clean_failure("cache frobnicate x", "unknown cache action");
  expect_clean_failure("cache verify", "needs a snapshot file");
  expect_clean_failure("cache verify a b", "exactly one snapshot file");
  expect_clean_failure("cache dump", "needs an output file");
  expect_clean_failure("cache dump --kernel sor", "needs an output file");
}

TEST(CliSnapshot, HelpGoesToStdoutAndExitsZero) {
  for (const std::string flag : {"--help", "-h", "help"}) {
    const RunResult r = run_cc(flag);
    EXPECT_EQ(r.exit_code, 0) << flag;
    EXPECT_NE(r.out.find("usage: tytra-cc"), std::string::npos) << r.out;
    EXPECT_NE(r.out.find("cache dump"), std::string::npos)
        << flag << " usage does not mention the cache subcommand: " << r.out;
    EXPECT_TRUE(r.err.empty()) << flag << " stderr: " << r.err;
  }
}

#else  // TYTRA_CC_BIN / TYTRA_SOURCE_DIR

TEST(CliSnapshot, RequiresToolPaths) {
  GTEST_SKIP() << "built without TYTRA_CC_BIN/TYTRA_SOURCE_DIR";
}

#endif

}  // namespace
