// End-to-end tests of the daemon deployment: a real tytra-dsed process
// on a Unix socket driven by real `tytra-cc --server` clients. The
// acceptance contracts live here: client output byte-identical to a
// standalone run (wall-clock fields scrubbed), a second client answering
// from the shared warm cache, snapshot persistence across daemon
// restarts, graceful SIGTERM drain with exit 0, and fault containment
// when the frame layer itself fails. Also covers the CLI-side SIGTERM
// satellite: a standalone campaign interrupted by SIGTERM honors the
// same exit-130 contract as SIGINT.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "tytra/support/json.hpp"

namespace {

#if defined(TYTRA_CC_BIN) && defined(TYTRA_SOURCE_DIR) && \
    defined(TYTRA_DSED_BIN)

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

RunResult run_cc(const std::string& args) {
  static int counter = 0;
  const std::string tag = "cli_daemon_" + std::to_string(counter++);
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

/// Zeroes `"key": <scalar>` everywhere — wall clocks differ run to run.
std::string scrub_key(std::string text, const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  std::size_t pos = 0;
  while ((pos = text.find(needle, pos)) != std::string::npos) {
    const std::size_t start = pos + needle.size();
    std::size_t end = start;
    while (end < text.size() && text[end] != ',' && text[end] != '\n' &&
           text[end] != '}') {
      ++end;
    }
    text.replace(start, end - start, 1, '0');
    pos = start;
  }
  return text;
}

std::string scrub_times(std::string text) {
  return scrub_key(scrub_key(std::move(text), "explore_seconds"), "seconds");
}

/// One tytra-dsed process: fork/exec with stderr to a log file, a
/// readiness wait on the socket file, SIGTERM + waitpid for the graceful
/// path, SIGKILL in the destructor as the safety net.
struct Daemon {
  pid_t pid{-1};
  std::string socket;
  std::string log_path;

  explicit Daemon(const std::vector<std::string>& extra_args = {},
                  const std::string& failpoints = {}) {
    static int counter = 0;
    const int n = counter++;
    socket = "/tmp/tytra_dsedt_" + std::to_string(::getpid()) + "_" +
             std::to_string(n) + ".sock";
    log_path = "dsed_" + std::to_string(n) + ".log";
    std::vector<std::string> args = {TYTRA_DSED_BIN, "--socket", socket};
    args.insert(args.end(), extra_args.begin(), extra_args.end());
    pid = ::fork();
    if (pid < 0) {
      ADD_FAILURE() << "fork failed: " << std::strerror(errno);
      return;
    }
    if (pid == 0) {
      if (!failpoints.empty()) {
        ::setenv("TYTRA_FAILPOINTS", failpoints.c_str(), 1);
      }
      const int log_fd =
          ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (log_fd >= 0) {
        ::dup2(log_fd, 2);
        ::close(log_fd);
      }
      std::vector<char*> argv;
      argv.reserve(args.size() + 1);
      for (auto& a : args) argv.push_back(a.data());
      argv.push_back(nullptr);
      ::execv(TYTRA_DSED_BIN, argv.data());
      _exit(127);
    }
  }

  ~Daemon() {
    if (pid > 0) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, nullptr, 0);
    }
    std::remove(log_path.c_str());
    ::unlink(socket.c_str());
  }

  /// True once the socket file exists (the server binds in its
  /// constructor, so a visible socket accepts connections).
  bool wait_ready(int timeout_ms = 10000) {
    for (int waited = 0; waited < timeout_ms; waited += 10) {
      struct stat st{};
      if (::stat(socket.c_str(), &st) == 0) return true;
      if (::waitpid(pid, nullptr, WNOHANG) == pid) {
        pid = -1;
        return false;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return false;
  }

  [[nodiscard]] bool alive() const { return pid > 0 && ::kill(pid, 0) == 0; }

  /// Reaps the process without signaling (for shutdown-by-request).
  int wait_exit() {
    if (pid <= 0) return -1;
    int status = 0;
    if (::waitpid(pid, &status, 0) != pid) return -1;
    pid = -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -WTERMSIG(status);
  }

  /// The graceful path under test: SIGTERM, then the real exit status.
  int terminate() {
    if (pid <= 0) return -1;
    ::kill(pid, SIGTERM);
    return wait_exit();
  }

  [[nodiscard]] std::string log() const { return read_file(log_path); }
};

/// campaign.cache.variant_hits from a `campaign --json` stdout.
std::uint32_t variant_hits_of(const std::string& json_text) {
  auto parsed = tytra::json::parse(json_text);
  if (!parsed.ok()) return 0;
  const tytra::json::Value root = std::move(parsed).take();
  const tytra::json::Value* campaign = root.find("campaign");
  if (campaign == nullptr) return 0;
  const tytra::json::Value* cache = campaign->find("cache");
  if (cache == nullptr) return 0;
  return cache->get_u32("variant_hits").value_or(0);
}

// ---------------------------------------------------------------------------

TEST(CliDaemon, PingAndShutdownByRequest) {
  Daemon d;
  ASSERT_TRUE(d.wait_ready()) << d.log();
  const RunResult ping = run_cc("ping --server " + d.socket);
  EXPECT_EQ(ping.exit_code, 0) << ping.err;
  EXPECT_NE(ping.out.find("\"type\": \"pong\""), std::string::npos) << ping.out;

  const RunResult shutdown = run_cc("shutdown --server " + d.socket);
  EXPECT_EQ(shutdown.exit_code, 0) << shutdown.err;
  EXPECT_EQ(d.wait_exit(), 0) << d.log();
  EXPECT_NE(d.log().find("tytra-dsed: drained ("), std::string::npos)
      << d.log();
}

TEST(CliDaemon, PingWithoutDaemonFailsWithDiagnostic) {
  const RunResult r = run_cc("ping --server /tmp/tytra_no_such_daemon.sock");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.err.find("cannot connect to server"), std::string::npos)
      << r.err;
  EXPECT_NE(r.err.find("is tytra-dsed running?"), std::string::npos) << r.err;
}

/// The only bytes allowed to differ between two runs are wall clocks: the
/// JSON "seconds"/"explore_seconds" values and the text banners' "in X s".
std::string scrub_wall_times(const std::string& text) {
  static const std::regex banner(" in [0-9]+\\.[0-9]+ s\n");
  return std::regex_replace(scrub_times(text), banner, " in 0 s\n");
}

struct IdentityCase {
  std::string args;
  /// explore/tune: the standalone side runs cache-enabled from a fresh
  /// --snapshot — exactly the fresh daemon's state (standalone without
  /// --snapshot runs cache-less and prints different cache stats by
  /// design). Campaigns always run cache-enabled standalone.
  bool snapshot;
};

// One table for the CLI/daemon byte-identity contract: every verb x text/
// --json x --pareto, .tir shipping, and the error paths. Each row runs
// against a fresh daemon, so no row warms another's cache.
TEST(CliDaemon, EveryVerbIsByteIdenticalToStandalone) {
  const std::string ir = sor_tir_path();
  std::vector<IdentityCase> cases;
  for (const std::string format : {"", " --json"}) {
    for (const std::string pareto : {"", " --pareto"}) {
      cases.push_back({"explore sor --nd 8" + format + pareto, true});
      cases.push_back({"tune sor --nd 8" + format + pareto, true});
      cases.push_back({"campaign --kernel sor --kernel hotspot --ir " + ir +
                           " --nd 8" + format + pareto,
                       false});
    }
    cases.push_back({"list" + format, false});
    cases.push_back({"list --ir " + ir + format, false});
    cases.push_back({"lint sor lavamd" + format, false});
    cases.push_back({"lint --ir " + ir + format, false});
  }
  cases.push_back({"lint lavamd --fail-on warning", false});
  for (const std::string verb : {"explore", "tune"}) {
    cases.push_back({verb + " nope --json", true});
    cases.push_back({verb + " sor --device nosuchboard", true});
    cases.push_back({verb + " sor --max-lanes 0", true});
    cases.push_back({verb + " sor --nd 0", true});
  }
  cases.push_back({"campaign --kernel nope", false});
  cases.push_back({"campaign --device nosuchboard", false});
  cases.push_back({"campaign --max-lanes 0", false});
  cases.push_back({"campaign --kernel sor --nd 0", false});
  cases.push_back({"lint nope", false});

  for (const IdentityCase& c : cases) {
    Daemon d;
    ASSERT_TRUE(d.wait_ready()) << d.log();
    TempSnap snap("cli_daemon_identity");
    const RunResult standalone =
        run_cc(c.args + (c.snapshot ? " --snapshot " + snap.path : ""));
    const RunResult via = run_cc(c.args + " --server " + d.socket);
    EXPECT_EQ(via.exit_code, standalone.exit_code) << c.args;
    EXPECT_EQ(scrub_wall_times(via.out), scrub_wall_times(standalone.out))
        << c.args;
    EXPECT_EQ(via.err, standalone.err) << c.args;
  }
}

TEST(CliDaemon, SnapshotAndServerDoNotCombine) {
  // --snapshot and --server cannot combine: the daemon owns the snapshot.
  const RunResult conflict =
      run_cc("explore sor --snapshot x.snap --server /tmp/unused.sock");
  EXPECT_EQ(conflict.exit_code, 2);
  EXPECT_NE(conflict.err.find("the daemon owns the snapshot"),
            std::string::npos)
      << conflict.err;
}

// The tentpole payoff: client 2's campaign answers from client 1's work,
// and a SIGTERM'd daemon persists that warmth for its next boot.
TEST(CliDaemon, WarmCacheAcrossClientsAndRestarts) {
  TempSnap snap("cli_daemon_warm");
  const std::string campaign = "campaign --kernel sor --kernel hotspot --json";
  {
    Daemon d({"--snapshot", snap.path});
    ASSERT_TRUE(d.wait_ready()) << d.log();
    const RunResult first = run_cc(campaign + " --server " + d.socket);
    ASSERT_EQ(first.exit_code, 0) << first.err;
    const RunResult second = run_cc(campaign + " --server " + d.socket);
    ASSERT_EQ(second.exit_code, 0) << second.err;
    EXPECT_GT(variant_hits_of(second.out), 0u)
        << "second client should hit the shared warm cache: " << second.out;

    EXPECT_EQ(d.terminate(), 0) << d.log();
    EXPECT_NE(d.log().find("saved snapshot"), std::string::npos) << d.log();
  }
  struct stat st{};
  ASSERT_EQ(::stat(snap.path.c_str(), &st), 0);
  EXPECT_GT(st.st_size, 0);

  Daemon reborn({"--snapshot", snap.path});
  ASSERT_TRUE(reborn.wait_ready()) << reborn.log();
  const RunResult warm = run_cc(campaign + " --server " + reborn.socket);
  ASSERT_EQ(warm.exit_code, 0) << warm.err;
  EXPECT_GT(variant_hits_of(warm.out), 0u)
      << "a rebooted daemon should be snapshot-warm: " << warm.out;
  EXPECT_EQ(reborn.terminate(), 0) << reborn.log();
}

TEST(CliDaemon, SigtermDrainsWithinBudgetAndUnlinksSocket) {
  Daemon d({"--drain-ms", "2000"});
  ASSERT_TRUE(d.wait_ready()) << d.log();
  ASSERT_EQ(run_cc("ping --server " + d.socket).exit_code, 0);

  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(d.terminate(), 0) << d.log();
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
  EXPECT_LT(elapsed, 15000) << "idle drain must not eat the whole budget";
  struct stat st{};
  EXPECT_NE(::stat(d.socket.c_str(), &st), 0)
      << "the socket file must be unlinked on shutdown";
  EXPECT_NE(d.log().find("tytra-dsed: drained ("), std::string::npos)
      << d.log();
}

// Frame-layer fault containment across the process boundary: with
// frame.write armed daemon-side, every response write fails — the client
// sees a disconnect, the daemon logs it, stays up, and still drains
// cleanly.
TEST(CliDaemon, InjectedWriteFaultDropsClientNotDaemon) {
  Daemon d({}, "frame.write=100%");
  ASSERT_TRUE(d.wait_ready()) << d.log();
  const RunResult r = run_cc("ping --server " + d.socket);
  EXPECT_EQ(r.exit_code, 1) << r.out;
  EXPECT_NE(r.err.find("tytra-cc: server disconnected"), std::string::npos)
      << r.err;
  EXPECT_TRUE(d.alive()) << "a write fault must never kill the daemon";
  EXPECT_EQ(d.terminate(), 0) << d.log();
  EXPECT_NE(d.log().find("injected fault at failpoint 'frame.write'"),
            std::string::npos)
      << d.log();
}

// The CLI SIGTERM satellite: a standalone campaign interrupted by
// SIGTERM keeps the SIGINT contract — completed results, exit 130.
TEST(CliDaemon, StandaloneSigtermHonorsInterruptContract) {
  static int counter = 0;
  const std::string tag = "cli_term_" + std::to_string(counter++);
  const std::string out_path = tag + ".out";
  const std::string err_path = tag + ".err";
  const std::string status_path = tag + ".status";
  // ~7,200 jobs of runway (roughly 0.5 s standalone on 4 cores in a
  // Release build) so the TERM at 100 ms lands mid-campaign with wide
  // margins on both sides.
  std::string nds;
  for (int n = 20; n <= 2420; ++n) nds += " --nd " + std::to_string(n);
  const std::string cmd =
      std::string("sh -c \"") + TYTRA_CC_BIN + " campaign" + nds +
      " --max-lanes 64 > " + out_path + " 2> " + err_path +
      " & pid=\\$!; sleep 0.1; kill -TERM \\$pid 2>/dev/null; wait \\$pid; "
      "echo \\$? > " + status_path + "\"";
  ASSERT_EQ(std::system(cmd.c_str()), 0);
  const std::string status = read_file(status_path);
  const std::string err = read_file(err_path);
  std::remove(out_path.c_str());
  std::remove(err_path.c_str());
  std::remove(status_path.c_str());
  EXPECT_EQ(status.substr(0, 3), "130") << "status=" << status
                                        << " stderr=" << err;
  EXPECT_NE(err.find("tytra-cc: campaign interrupted ("), std::string::npos)
      << err;
}

#else

TEST(CliDaemon, Skipped) {
  GTEST_SKIP() << "tool binaries not built; daemon CLI tests skipped";
}

#endif  // TYTRA_CC_BIN && TYTRA_SOURCE_DIR && TYTRA_DSED_BIN

}  // namespace
