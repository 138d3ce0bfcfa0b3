#include "common.hpp"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>

#include "tytra/support/framing.hpp"

extern char** environ;

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Samples::quantile(double p) const {
  if (v_.empty()) return 0;
  std::vector<double> s = v_;
  std::sort(s.begin(), s.end());
  const double pos = p * static_cast<double>(s.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, s.size() - 1);
  return s[lo] + (s[hi] - s[lo]) * (pos - static_cast<double>(lo));
}

double tail_level(std::size_t n) {
  // Whole nines: the level then stays put while the op count drifts by a
  // few percent between runs (a p95 ladder rung sat at ~200 ops, right
  // where the cli_snapshot cycle count falls).
  for (const double p : {0.999, 0.99, 0.9, 0.75}) {
    if (static_cast<double>(n) * (1 - p) >= 10) return p;
  }
  return 0.5;
}

std::string level_name(double p) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "p%g", p * 100);
  return buf;
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

double Report::value(const std::string& name) const {
  for (const auto& m : metrics_) {
    if (m.name == name) return m.value;
  }
  return 0;
}

void Report::spread(const std::string& label, const Samples& s,
                    const std::string& unit) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "%-34s p25 %-11.5g p50 %-11.5g p75 %-11.5g %s (n=%zu)",
                label.c_str(), s.quantile(0.25), s.median(), s.quantile(0.75),
                unit.c_str(), s.size());
  notes_.emplace_back(buf);
}

void Report::note(const std::string& line) { notes_.push_back(line); }

void Report::check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (mismatch_notes_++ < 5) notes_.push_back("WRONG ANSWER: " + what);
}

void Report::invariant(bool ok, const std::string& what) {
  if (ok) return;
  invariants_ok_ = false;
  notes_.push_back("REFERENCE CHECK FAILED: " + what);
}

void Report::print() const {
  for (const auto& n : notes_) std::printf("%s\n", n.c_str());
  std::printf("error_rate %.6g (%llu of %llu answers wrong or missing)\n",
              attempted ? static_cast<double>(failed) / attempted : 0.0,
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  std::string line = "{\"correct\": ";
  line += failed == 0 && invariants_ok_ && attempted > 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    char num[64];
    const double v = std::isfinite(metrics_[i].value) ? metrics_[i].value : 0;
    std::snprintf(num, sizeof num, "%.17g", v);
    line += (i ? ", \"" : "\"") + metrics_[i].name + "\": {\"value\": " + num +
            ", \"unit\": \"" + metrics_[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

void latency_metrics(Report& report, const Samples& ms) {
  const double level = tail_level(ms.size());
  report.spread("latency per op", ms, "ms");
  report.note("latency_ms_tail is " + level_name(level) + " of " +
              std::to_string(ms.size()) + " ops");
  report.metric("latency_ms_p50", ms.median(), "ms");
  report.metric("latency_ms_tail", ms.quantile(level), "ms");
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

namespace {
std::atomic<Tracer*> g_tracer{nullptr};
std::atomic<std::uint64_t> g_root{0};
std::atomic<int> g_next_tid{1};
thread_local std::uint64_t tl_open = 0;
thread_local int tl_tid = 0;

int thread_tid() {
  if (tl_tid == 0) tl_tid = g_next_tid.fetch_add(1);
  return tl_tid;
}
}  // namespace

Tracer* Tracer::active() { return g_tracer.load(std::memory_order_acquire); }
void Tracer::install(Tracer* tracer) {
  g_tracer.store(tracer, std::memory_order_release);
}

std::uint64_t Tracer::next_id() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_++;
}

void Tracer::add(const char* name, std::uint64_t id, std::uint64_t parent,
                 double t0, double t1) {
  const int tid = thread_tid();
  std::lock_guard<std::mutex> lock(mu_);
  recs_.push_back({name, id, parent, tid, t0, t1});
}

std::map<std::string, double> Tracer::self_seconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::uint64_t, std::vector<std::pair<double, double>>> children;
  for (const auto& r : recs_) {
    if (r.parent != 0) children[r.parent].emplace_back(r.t0, r.t1);
  }
  std::map<std::string, double> out;
  for (const auto& r : recs_) {
    double covered = 0;
    if (auto it = children.find(r.id); it != children.end()) {
      auto iv = it->second;
      std::sort(iv.begin(), iv.end());
      double cur_lo = 0;
      double cur_hi = -1;
      for (auto [lo, hi] : iv) {
        lo = std::max(lo, r.t0);
        hi = std::min(hi, r.t1);
        if (hi <= lo) continue;
        if (lo > cur_hi) {
          if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
          cur_lo = lo;
          cur_hi = hi;
        } else {
          cur_hi = std::max(cur_hi, hi);
        }
      }
      if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    }
    out[r.name] += (r.t1 - r.t0) - covered;
  }
  return out;
}

bool Tracer::write_chrome(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream f(path);
  if (!f) return false;
  double base = recs_.empty() ? 0 : recs_.front().t0;
  for (const auto& r : recs_) base = std::min(base, r.t0);
  f << "{\"traceEvents\": [";
  char buf[320];
  for (std::size_t i = 0; i < recs_.size(); ++i) {
    const auto& r = recs_[i];
    std::snprintf(buf, sizeof buf,
                  "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                  "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                  "{\"id\": %llu, \"parent\": %llu}}",
                  i ? "," : "", r.name, r.tid, (r.t0 - base) * 1e6,
                  (r.t1 - r.t0) * 1e6, static_cast<unsigned long long>(r.id),
                  static_cast<unsigned long long>(r.parent));
    f << buf;
  }
  f << "\n]}\n";
  return static_cast<bool>(f);
}

Span::Span(const char* name) : tracer_(Tracer::active()), name_(name) {
  if (tracer_ == nullptr) return;
  id_ = tracer_->next_id();
  parent_ = tl_open != 0 ? tl_open : g_root.load(std::memory_order_relaxed);
  saved_ = tl_open;
  tl_open = id_;
  t0_ = now_s();
}

Span::~Span() {
  if (tracer_ == nullptr) return;
  const double t1 = now_s();
  tl_open = saved_;
  tracer_->add(name_, id_, parent_, t0_, t1);
}

void set_root_span(std::uint64_t id) {
  g_root.store(id, std::memory_order_relaxed);
}

void trace_metrics(const Options& opts, Report& report, const Tracer& tracer,
                   const Samples& traced_ms, const Samples& untraced_ms) {
  static constexpr const char* kLayers[] = {
      "bench.op",      "bench.check", "bench.restore",   "dse.session.run",
      "kernels.lower", "dse.render",  "tools.cc.process"};
  const auto self = tracer.self_seconds();
  const double ops =
      static_cast<double>(std::max<std::size_t>(traced_ms.size(), 1));
  for (const char* layer : kLayers) {
    const auto it = self.find(layer);
    report.metric(std::string("trace.self_ms.") + layer,
                  it == self.end() ? 0 : it->second / ops * 1e3, "ms");
  }
  report.spread("traced op", traced_ms, "ms");
  report.spread("untraced op", untraced_ms, "ms");
  const double base = untraced_ms.median();
  report.metric("bench.trace_overhead_pct",
                base > 0 ? (traced_ms.median() - base) / base * 100 : 0, "%");
  const std::string path = opts.work_dir + "/trace-" + opts.workload + "-" +
                           std::to_string(opts.seed) + ".json";
  if (tracer.write_chrome(path)) report.note("trace written to " + path);
}

// ---------------------------------------------------------------------------
// Answers
// ---------------------------------------------------------------------------

std::string normalize(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find('\n', pos);
    if (end == std::string_view::npos) end = text.size();
    std::string_view line = text.substr(pos, end - pos);
    const bool header = line.starts_with("exploring ") ||
                        line.starts_with("campaign: ");
    if (header) {
      if (const auto c = line.find("; cache: "); c != std::string_view::npos) {
        line = line.substr(0, c);
      } else if (const auto in = line.rfind(" in ");
                 in != std::string_view::npos && line.ends_with(" s")) {
        line = line.substr(0, in);
      }
    }
    out.append(line);
    if (end < text.size()) out.push_back('\n');
    pos = end + 1;
  }
  return out;
}

std::uint64_t fnv1a(std::string_view s, std::uint64_t h) {
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

void check_digest(const Options& opts, Report& report, const std::string& key,
                  std::uint64_t digest, bool seeded) {
  report.note("reference digest " + key + " seed " +
              std::to_string(opts.seed) + ": " + hex64(digest));
  if (seeded && opts.seed != kDigestSeed) return;
  std::ifstream in(opts.repo_dir + "/perfbench/expected.json");
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const std::string quoted = "\"" + key + "\": \"";
  const auto at = text.find(quoted);
  report.invariant(at != std::string::npos &&
                       text.compare(at + quoted.size(), 16, hex64(digest)) == 0,
                   "reference answers differ from the digest recorded in "
                   "perfbench/expected.json for " + key);
}

void setup_done(const Options& opts, Report& report) {
  report.metric("setup_s", now_s() - opts.start_s, "s");
}

double fresh_setup_seconds(const Options& opts, Report& report) {
  const std::vector<std::string> argv = {
      std::filesystem::read_symlink("/proc/self/exe").string(),
      "--workload", opts.workload, "--seed", std::to_string(opts.seed),
      "--seconds", "1", "--trace", "0", "--bin-dir", opts.bin_dir,
      "--repo", opts.repo_dir, "--work", opts.work_dir, "--setup-only"};
  Samples s;
  for (int i = 0; i < kSetups; ++i) {
    const ProcResult r = run_process(argv, opts.work_dir);
    const auto at = r.out.rfind("setup_s ");
    if (r.status != 0 || at == std::string::npos) {
      throw std::runtime_error("a --setup-only run of " + opts.workload +
                               " failed");
    }
    s.add(std::strtod(r.out.c_str() + at + 8, nullptr));
  }
  report.spread("setup (fresh process)", s, "s");
  return s.median();
}

// ---------------------------------------------------------------------------
// Processes
// ---------------------------------------------------------------------------

namespace {

std::vector<char*> argv_ptrs(const std::vector<std::string>& argv) {
  std::vector<char*> out;
  out.reserve(argv.size() + 1);
  for (const auto& a : argv) out.push_back(const_cast<char*>(a.c_str()));
  out.push_back(nullptr);
  return out;
}

int exit_code(int status) {
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

}  // namespace

ProcResult run_process(const std::vector<std::string>& argv,
                       const std::string& cwd) {
  ProcResult r;
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) return r;
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_adddup2(&fa, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addopen(&fa, STDERR_FILENO, "/dev/null", O_WRONLY,
                                   0);
  posix_spawn_file_actions_addchdir_np(&fa, cwd.c_str());
  auto args = argv_ptrs(argv);
  const double t0 = now_s();
  pid_t pid = -1;
  const int rc = ::posix_spawn(&pid, args[0], &fa, nullptr, args.data(),
                               environ);
  posix_spawn_file_actions_destroy(&fa);
  ::close(fds[1]);
  if (rc != 0) {
    ::close(fds[0]);
    return r;
  }
  char buf[65536];
  for (;;) {
    const ssize_t n = ::read(fds[0], buf, sizeof buf);
    if (n > 0) {
      r.out.append(buf, static_cast<std::size_t>(n));
    } else if (n == 0 || errno != EINTR) {
      break;
    }
  }
  ::close(fds[0]);
  int status = 0;
  rusage ru{};
  while (::wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {
  }
  r.seconds = now_s() - t0;
  r.status = exit_code(status);
  r.maxrss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  return r;
}

Child::~Child() {
  if (pid_ > 0) wait(0, nullptr);
}

bool Child::spawn(const std::vector<std::string>& argv,
                  const std::string& stderr_path) {
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_addopen(&fa, STDOUT_FILENO, "/dev/null", O_WRONLY,
                                   0);
  posix_spawn_file_actions_addopen(&fa, STDERR_FILENO, stderr_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  auto args = argv_ptrs(argv);
  const int rc = ::posix_spawn(&pid_, args[0], &fa, nullptr, args.data(),
                               environ);
  posix_spawn_file_actions_destroy(&fa);
  if (rc != 0) pid_ = -1;
  return rc == 0;
}

int Child::wait(double timeout_s, double* maxrss_mb) {
  if (pid_ <= 0) return -1;
  int status = 0;
  rusage ru{};
  const double deadline = now_s() + timeout_s;
  for (;;) {
    const pid_t got = ::wait4(pid_, &status, WNOHANG, &ru);
    if (got == pid_ || (got < 0 && errno != EINTR)) break;
    if (now_s() >= deadline) {
      ::kill(pid_, SIGKILL);
      while (::wait4(pid_, &status, 0, &ru) < 0 && errno == EINTR) {
      }
      break;
    }
    ::usleep(2000);
  }
  pid_ = -1;
  if (maxrss_mb) *maxrss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  return exit_code(status);
}

int connect_unix(const std::string& path) {
  sockaddr_un addr{};
  if (path.size() >= sizeof(addr.sun_path)) return -1;
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

Daemon::Daemon(const Options& opts, const std::string& name) {
  // Relative to the working directory: sun_path holds only 108 bytes.
  socket_ = std::filesystem::relative(opts.work_dir).string() + "/" + name +
            ".sock";
  if (!child_.spawn({opts.dsed(), "--socket", socket_},
                    opts.work_dir + "/" + name + ".log")) {
    throw std::runtime_error("cannot start " + opts.dsed());
  }
  for (const double deadline = now_s() + 20; now_s() < deadline;) {
    const int fd = connect_unix(socket_);
    if (fd >= 0) {
      ::close(fd);
      return;
    }
    ::usleep(5000);
  }
  throw std::runtime_error("tytra-dsed did not come up on " + socket_);
}

Daemon::~Daemon() {
  if (child_.running()) stop();
}

int Daemon::connect() const {
  const int fd = connect_unix(socket_);
  if (fd < 0) throw std::runtime_error("cannot connect to " + socket_);
  return fd;
}

double Daemon::stop() {
  const int fd = connect_unix(socket_);
  if (fd >= 0) {
    round_trip(fd, R"({"cmd": "shutdown"})");
    ::close(fd);
  }
  double rss = 0;
  child_.wait(10, &rss);
  return rss;
}

std::string round_trip(int fd, const std::string& request) {
  std::string err;
  if (!tytra::framing::write_frame(fd, request, err)) return {};
  std::string payload;
  for (;;) {
    if (tytra::framing::read_frame(fd, payload, err) !=
        tytra::framing::ReadStatus::Frame) {
      return {};
    }
    if (!payload.starts_with(R"({"type": "job")")) return payload;
  }
}

double self_maxrss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

}  // namespace perfbench
