#pragma once

// Shared pieces of the benchmark driver: clocks and quantiles, the report
// that ends in the one-line JSON result, in-memory spans for the traced
// run, the deterministic rendering every answer is checked on, and
// child-process helpers for the tytra-cc and tytra-dsed binaries.

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Steady-clock seconds.
double now_s();

/// Fresh set-up processes per untraced run; setup_s is their median.
inline constexpr int kSetups = 9;

struct Options {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10};
  bool trace{false};
  /// Self-test: corrupt the first answer before it is checked.
  bool corrupt{false};
  /// Run the set-up alone and report its time from start_s.
  bool setup_only{false};
  double start_s{0};  ///< now_s() at the start of main
  std::string bin_dir;   ///< holds tytra-cc and tytra-dsed
  std::string repo_dir;  ///< source tree (examples/ir/*.tir)
  std::string work_dir;  ///< scratch inside the checkout

  [[nodiscard]] std::string cc() const { return bin_dir + "/tytra-cc"; }
  [[nodiscard]] std::string dsed() const { return bin_dir + "/tytra-dsed"; }
};

class Samples {
 public:
  void add(double v) { v_.push_back(v); }
  [[nodiscard]] std::size_t size() const { return v_.size(); }
  [[nodiscard]] bool empty() const { return v_.empty(); }
  /// Linear interpolation between order statistics; 0 when empty.
  [[nodiscard]] double quantile(double p) const;
  [[nodiscard]] double median() const { return quantile(0.5); }

 private:
  std::vector<double> v_;
};

/// The highest of p75, p90, p99 and p99.9 with at least ten of `n`
/// samples beyond it (p50 when even p75 is out of reach).
double tail_level(std::size_t n);
/// "p95", "p99.9".
std::string level_name(double p);

/// Everything one run prints: human-readable notes and spread lines, then
/// the metrics and the answer-check tally as the last (JSON) line.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// A metric already put; 0 when absent.
  [[nodiscard]] double value(const std::string& name) const;
  /// One spread line: quartiles and sample count.
  void spread(const std::string& label, const Samples& s,
              const std::string& unit);
  void note(const std::string& line);
  /// Counts answers checked; a mismatch is a failure with a note.
  void check(bool ok, const std::string& what);
  /// A reference check that is not one op's answer (digest, sim band).
  void invariant(bool ok, const std::string& what);
  void print() const;

  std::uint64_t attempted{0};
  std::uint64_t failed{0};

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
  bool invariants_ok_{true};
  std::size_t mismatch_notes_{0};
};

/// Puts latency_ms_p50 / latency_ms_tail (plus spread lines) for per-op
/// latencies in milliseconds.
void latency_metrics(Report& report, const Samples& ms);

// ---------------------------------------------------------------------------
// Spans (the traced run)
// ---------------------------------------------------------------------------

/// In-memory span store. Installed only for traced ops, so an untraced op
/// pays one pointer load per span site.
class Tracer {
 public:
  static Tracer* active();
  static void install(Tracer* tracer);

  std::uint64_t next_id();
  void add(const char* name, std::uint64_t id, std::uint64_t parent,
           double t0, double t1);
  /// Self time per span name: each span's duration minus the union of its
  /// children's intervals, summed over spans.
  [[nodiscard]] std::map<std::string, double> self_seconds() const;
  /// Chrome trace-event JSON ("X" events, microseconds).
  bool write_chrome(const std::string& path) const;

 private:
  struct Rec {
    const char* name;
    std::uint64_t id;
    std::uint64_t parent;
    int tid;
    double t0;
    double t1;
  };
  mutable std::mutex mu_;
  std::vector<Rec> recs_;
  std::uint64_t next_{1};
};

/// RAII span; a no-op when no tracer is installed. Spans opened on a
/// thread with no open span (pool workers) hang under the root span.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  [[nodiscard]] std::uint64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  const char* name_;
  std::uint64_t id_{0};
  std::uint64_t parent_{0};
  std::uint64_t saved_{0};
  double t0_{0};
};

/// Parent for spans opened on threads with no open span of their own.
void set_root_span(std::uint64_t id);

/// The traced run's own metrics: self time per op of every span layer
/// (0 for layers this workload does not cross) and the tracing overhead,
/// traced against untraced ops of the same run. Writes the Chrome trace
/// to the work directory.
void trace_metrics(const Options& opts, Report& report, const Tracer& tracer,
                   const Samples& traced_ms, const Samples& untraced_ms);

// ---------------------------------------------------------------------------
// Answers
// ---------------------------------------------------------------------------

/// The deterministic part of an engine answer: header lines lose their
/// " in <t> s" wall time and the campaign summary loses its cache
/// counters, which legitimately differ between cached, uncached, warm and
/// cold runs of the same work.
std::string normalize(std::string_view text);
std::uint64_t fnv1a(std::string_view s,
                    std::uint64_t h = 0xcbf29ce484222325ULL);
std::string hex64(std::uint64_t v);

/// The seed perfbench/expected.json records seed-dependent digests for.
inline constexpr std::uint64_t kDigestSeed = 1;

/// Prints the digest of a set of reference answers and compares it with
/// the one perfbench/expected.json records under `key`. Answers that
/// depend on the seed (`seeded`) are compared on kDigestSeed only.
void check_digest(const Options& opts, Report& report, const std::string& key,
                  std::uint64_t digest, bool seeded);

/// Ends a --setup-only run: puts setup_s, the time since main started.
void setup_done(const Options& opts, Report& report);
/// setup_s of an untraced run: the median of kSetups fresh driver
/// processes run with --setup-only, so one-time start work (the registry,
/// lazy statics, first heap growth) counts in every sample.
double fresh_setup_seconds(const Options& opts, Report& report);

// ---------------------------------------------------------------------------
// Processes
// ---------------------------------------------------------------------------

struct ProcResult {
  int status{-1};  ///< exit code; -1 when it did not exit normally
  std::string out;
  double seconds{0};    ///< spawn to reap
  double maxrss_mb{0};  ///< the child's peak resident set
};

/// Runs argv in `cwd` to completion with stdout captured and stderr
/// discarded.
ProcResult run_process(const std::vector<std::string>& argv,
                       const std::string& cwd = ".");

/// A long-running child (the daemon of the per-layer suite). The destructor kills and reaps a
/// child that is still running, so no exit path leaves one behind.
class Child {
 public:
  Child() = default;
  ~Child();
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  bool spawn(const std::vector<std::string>& argv,
             const std::string& stderr_path);
  /// Reaps the child, killing it after `timeout_s`; returns its exit code
  /// (-1 when killed) and its peak resident set.
  int wait(double timeout_s, double* maxrss_mb);
  [[nodiscard]] bool running() const { return pid_ > 0; }

 private:
  pid_t pid_{-1};
};

/// Connects to a Unix-domain socket; -1 on failure.
int connect_unix(const std::string& path);

/// A tytra-dsed child listening in the work directory.
class Daemon {
 public:
  /// Starts the daemon and waits until it accepts connections; throws
  /// when it does not come up.
  Daemon(const Options& opts, const std::string& name);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// A new client connection; throws on failure.
  [[nodiscard]] int connect() const;
  /// Asks the daemon to drain and exit, reaps it, and returns its peak
  /// resident set in MB. Close client connections first.
  double stop();

 private:
  std::string socket_;
  Child child_;
};

/// Sends one request frame and reads frames up to the terminal one
/// ("result", "error" or "pong"); returns its payload, or an empty string
/// when the transport fails.
std::string round_trip(int fd, const std::string& request);

/// Peak resident set of this process.
double self_maxrss_mb();

// Workloads and the per-layer suite.
void run_cold_sweep(const Options& opts, Report& report);
void run_cli_snapshot(const Options& opts, Report& report);
void run_layers(const Options& opts, Report& report);

}  // namespace perfbench
