// End-to-end tests of `tytra-cc ... --ir`: the file-backed workload path
// through the real binary. Pins the CLI-level acceptance criterion
// (explore --ir sor.tir byte-identical to the built-in sor on every
// preset) and the failure contract (nonexistent or unverifiable files
// exit nonzero with a stderr diagnostic and no stdout output).

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace {

#if defined(TYTRA_CC_BIN) && defined(TYTRA_SOURCE_DIR)

struct RunResult {
  int exit_code{-1};
  std::string out;
  std::string err;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Runs tytra-cc with `args`, capturing stdout/stderr through temp files
/// in the working directory.
RunResult run_cc(const std::string& args) {
  static int counter = 0;
  const std::string tag = "cli_ir_" + std::to_string(counter++);
  const std::string out_path = tag + ".out";
  const std::string err_path = tag + ".err";
  const std::string cmd = std::string(TYTRA_CC_BIN) + " " + args + " > " +
                          out_path + " 2> " + err_path;
  const int status = std::system(cmd.c_str());
  RunResult r;
  r.exit_code = status < 0 ? status : WEXITSTATUS(status);
  r.out = read_file(out_path);
  r.err = read_file(err_path);
  std::remove(out_path.c_str());
  std::remove(err_path.c_str());
  return r;
}

std::string sor_tir_path() {
  return std::string(TYTRA_SOURCE_DIR) + "/examples/ir/sor.tir";
}

/// Drops the first line (the "exploring <name> on <device> ... in N s"
/// banner names the workload and wall time; everything below is the
/// deterministic sweep table).
std::string strip_banner(const std::string& text) {
  const auto nl = text.find('\n');
  return nl == std::string::npos ? std::string() : text.substr(nl + 1);
}

TEST(CliIr, NonexistentFileFailsCleanly) {
  const RunResult r = run_cc("explore --ir no/such/file.tir");
  EXPECT_NE(r.exit_code, 0);
  EXPECT_TRUE(r.out.empty()) << r.out;
  EXPECT_NE(r.err.find("cannot read"), std::string::npos) << r.err;
}

TEST(CliIr, UnverifiableFileFailsCleanly) {
  const std::string path = "cli_ir_bad.tir";
  {
    std::ofstream bad(path);
    bad << "!ngs = 8\n"
           "define void @main() pipe {\n"
           "  call @missing() pipe\n"
           "}\n";
  }
  const RunResult r = run_cc("explore --ir " + path);
  std::remove(path.c_str());
  EXPECT_NE(r.exit_code, 0);
  EXPECT_TRUE(r.out.empty()) << r.out;
  EXPECT_NE(r.err.find("@missing"), std::string::npos) << r.err;
  EXPECT_NE(r.err.find(" at "), std::string::npos)
      << "diagnostic carries no location: " << r.err;
}

TEST(CliIr, KernelAndIrTogetherRejected) {
  const RunResult r = run_cc("explore sor --ir " + sor_tir_path());
  EXPECT_NE(r.exit_code, 0);
  EXPECT_TRUE(r.out.empty()) << r.out;
  EXPECT_NE(r.err.find("not both"), std::string::npos) << r.err;
}

TEST(CliIr, ExploreIrMatchesBuiltinSorOnAllPresets) {
  for (const std::string preset :
       {"stratix-v-gsd8", "virtex7-690t", "fig15"}) {
    const RunResult file = run_cc("explore --ir " + sor_tir_path() +
                                  " --nd 64 --pareto --device " + preset);
    const RunResult builtin =
        run_cc("explore sor --nd 64 --pareto --device " + preset);
    ASSERT_EQ(file.exit_code, 0) << file.err;
    ASSERT_EQ(builtin.exit_code, 0) << builtin.err;
    EXPECT_EQ(strip_banner(file.out), strip_banner(builtin.out))
        << "preset " << preset;
    EXPECT_FALSE(strip_banner(file.out).empty());
  }
}

TEST(CliIr, ListShowsFileWorkloadWithSource) {
  const RunResult r = run_cc("list --ir " + sor_tir_path());
  ASSERT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.out.find("sor_file"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("source: " + sor_tir_path()), std::string::npos)
      << r.out;
}

TEST(CliIr, TuneAcceptsIr) {
  const RunResult r = run_cc("tune --ir " + sor_tir_path() + " --nd 32");
  ASSERT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.out.find("tuning"), std::string::npos) << r.out;
}

// The advisory lint notes on stderr: a file workload's structural lint
// findings print once per registration (not once per --nd), as
// `tytra-cc: <path>: <diag>`; the lint verb reports them in its own
// output instead.
TEST(CliIr, AdvisoryLintNotesPrintOncePerFile) {
  const std::string path = "cli_ir_fold.tir";
  {
    std::ofstream fold(path);
    fold << "!name = folded\n"
            "!ND1 = 8\n"
            "!ngs = ND1*ND1\n"
            "memobj @m_a global ui18 x ND1*ND1\n"
            "memobj @m_b global ui18 x ND1*ND1\n"
            "stream @s_a reads @m_a pattern cont\n"
            "stream @s_b writes @m_b pattern cont\n"
            "@main.a = addrSpace(1) ui18, !\"istream\", !\"CONT\", !0, "
            "!\"s_a\"\n"
            "@main.b = addrSpace(1) ui18, !\"ostream\", !\"CONT\", !0, "
            "!\"s_b\"\n"
            "define void @f0(ui18 %a, ui18 %b) pipe {\n"
            "  ui18 %k = mov ui18 7\n"
            "  ui18 %t1 = add ui18 %a, %k\n"
            "  ui18 @b = mov ui18 %t1\n"
            "}\n"
            "define void @main() pipe {\n"
            "  call @f0(@a, @b) pipe\n"
            "}\n";
  }
  const std::string note =
      "tytra-cc: " + path +
      ": warning [TL013] at 11:3: all operands of this mov are constants; "
      "the result is foldable at compile time\n";

  const RunResult campaign =
      run_cc("campaign --ir " + path + " --nd 8 --nd 16");
  const RunResult explore = run_cc("explore --ir " + path);
  const RunResult lint = run_cc("lint --ir " + path);
  std::remove(path.c_str());

  ASSERT_EQ(campaign.exit_code, 0) << campaign.err;
  EXPECT_EQ(campaign.err, note);
  ASSERT_EQ(explore.exit_code, 0) << explore.err;
  EXPECT_EQ(explore.err, note);
  ASSERT_EQ(lint.exit_code, 0) << lint.err;
  EXPECT_EQ(lint.err.find("tytra-cc: " + path), std::string::npos)
      << lint.err;
  EXPECT_NE(lint.out.find("warning [TL013] at 11:3"), std::string::npos)
      << lint.out;
}

#else  // TYTRA_CC_BIN / TYTRA_SOURCE_DIR

TEST(CliIr, RequiresToolPaths) {
  GTEST_SKIP() << "built without TYTRA_CC_BIN/TYTRA_SOURCE_DIR";
}

#endif

}  // namespace
