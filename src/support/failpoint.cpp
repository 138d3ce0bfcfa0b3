#include "tytra/support/failpoint.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>

namespace tytra::failpoint {

namespace {

/// The armed-point count, readable without the mutex: armed() is the
/// only thing a disarmed process ever executes.
std::atomic<int> g_armed{0};

struct PointState {
  unsigned percent{0};
  std::uint64_t hits{0};
};

struct Registry {
  std::mutex mu;
  std::map<std::string, PointState, std::less<>> points;
  std::uint64_t fired{0};
};

Registry& registry() {
  static Registry r;
  return r;
}

/// Deterministic pacing: hit n (0-based) fires iff the integer ramp
/// (n*pct)/100 advances at n+1 — exactly pct fires per 100 consecutive
/// hits, at the same hit numbers every run.
bool paced_fire(std::uint64_t n, unsigned pct) {
  return (n + 1) * pct / 100 > n * pct / 100;
}

/// Parses "name=PCT" or "name=PCT%". Returns false on malformed input.
bool parse_entry(std::string_view entry, std::string& name, unsigned& pct) {
  const std::size_t eq = entry.find('=');
  if (eq == std::string_view::npos || eq == 0) return false;
  name = std::string(entry.substr(0, eq));
  std::string_view value = entry.substr(eq + 1);
  if (!value.empty() && value.back() == '%') value.remove_suffix(1);
  if (value.empty() || value.size() > 3) return false;
  unsigned v = 0;
  for (const char c : value) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<unsigned>(c - '0');
  }
  if (v > 100) return false;
  pct = v;
  return true;
}

/// One-time TYTRA_FAILPOINTS pickup. Dynamic initialization of this TU
/// runs before main(), so env-armed points are live before any tool code
/// asks armed().
const bool g_env_loaded = [] {
  const char* spec = std::getenv("TYTRA_FAILPOINTS");
  if (spec != nullptr && spec[0] != '\0' && !arm_from_spec(spec)) {
    std::fprintf(stderr,
                 "tytra: warning: TYTRA_FAILPOINTS='%s' is malformed or "
                 "names an unknown failpoint (known: ",
                 spec);
    const auto& names = known_names();
    for (std::size_t i = 0; i < names.size(); ++i) {
      std::fprintf(stderr, "%s%s", i ? ", " : "", names[i].c_str());
    }
    std::fprintf(stderr, "); nothing armed\n");
  }
  return true;
}();

}  // namespace

const std::vector<std::string>& known_names() {
  // Every site wired into the engine. Keep sorted; tests and the CI
  // sweep iterate this list.
  static const std::vector<std::string> names = {
      "binio.read",          // binio::Reader::from_bytes
      "binio.write",         // binio::Writer::write
      "cache.insert",        // CostCache entry publication
      "calibration.measure", // cost::DeviceCostDb::calibrate
      "dse.pool-task",       // one variant evaluation in evaluate_tasks
      "frame.read",          // framing::read_frame (daemon wire protocol)
      "frame.write",         // framing::write_frame (daemon wire protocol)
      "membench.measure",    // membench::BandwidthTable::measure
      "server.accept",       // dse::Server accept loop
      "server.drain",        // dse::Server graceful drain (skips the wait)
      "snapshot.load",       // Session::load_snapshot
      "snapshot.save",       // Session::save_snapshot
      "workload.parse",      // kernels::load_file_workload
  };
  return names;
}

bool armed() { return g_armed.load(std::memory_order_relaxed) != 0; }

bool fire(std::string_view name) {
  if (!armed()) return false;
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  const auto it = r.points.find(name);
  if (it == r.points.end() || it->second.percent == 0) return false;
  const bool fires = paced_fire(it->second.hits++, it->second.percent);
  if (fires) ++r.fired;
  return fires;
}

void maybe_throw(std::string_view name) {
  if (fire(name)) throw InjectedFault(name);
}

void arm(std::string_view name, unsigned percent) {
  percent = std::min(percent, 100u);
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  const auto it = r.points.find(name);
  if (percent == 0) {
    if (it != r.points.end() && it->second.percent != 0) {
      g_armed.fetch_sub(1, std::memory_order_relaxed);
    }
    if (it != r.points.end()) r.points.erase(it);
    return;
  }
  if (it == r.points.end()) {
    r.points.emplace(std::string(name), PointState{percent, 0});
    g_armed.fetch_add(1, std::memory_order_relaxed);
  } else {
    if (it->second.percent == 0) g_armed.fetch_add(1, std::memory_order_relaxed);
    it->second.percent = percent;
  }
}

void reset() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  r.points.clear();
  r.fired = 0;
  g_armed.store(0, std::memory_order_relaxed);
}

bool arm_from_spec(std::string_view spec) {
  // Validate the whole spec before arming anything: a half-armed typo'd
  // spec would be worse than an ignored one.
  std::vector<std::pair<std::string, unsigned>> parsed;
  std::size_t pos = 0;
  const auto& names = known_names();
  while (pos <= spec.size()) {
    const std::size_t comma = std::min(spec.find(',', pos), spec.size());
    const std::string_view entry = spec.substr(pos, comma - pos);
    if (!entry.empty()) {
      std::string name;
      unsigned pct = 0;
      if (!parse_entry(entry, name, pct)) return false;
      if (std::find(names.begin(), names.end(), name) == names.end()) {
        return false;
      }
      parsed.emplace_back(std::move(name), pct);
    }
    if (comma == spec.size()) break;
    pos = comma + 1;
  }
  if (parsed.empty()) return false;
  for (const auto& [name, pct] : parsed) arm(name, pct);
  return true;
}

std::uint64_t fired_count() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  return r.fired;
}

}  // namespace tytra::failpoint
