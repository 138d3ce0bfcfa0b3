// tytra-dsed: the DSE-as-a-service daemon. Boots ONE warm dse::Session
// (optionally from a snapshot), listens on a Unix-domain socket, and
// serves concurrent tytra-cc clients (`tytra-cc --server <socket> ...`)
// over the length-prefixed JSON frame protocol — every client shares the
// session's cost cache and calibrated device table, so the
// second campaign answers at the variant-key level from the first one's
// work. SIGTERM/SIGINT drain gracefully: in-flight work gets --drain-ms
// to finish (then cooperative cancellation), the snapshot is saved, and
// the daemon exits 0.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "tytra/dse/server.hpp"

namespace {

tytra::dse::Server* g_server = nullptr;

void handle_signal(int /*sig*/) {
  if (g_server != nullptr) g_server->signal_shutdown();
}

int usage(std::FILE* to) {
  std::fprintf(
      to,
      "usage: tytra-dsed --socket PATH [options]\n"
      "\n"
      "Serve DSE campaigns to concurrent tytra-cc clients over one warm\n"
      "session (shared cost cache, calibrated devices, thread pool).\n"
      "Clients connect with `tytra-cc --server PATH explore|tune|campaign|\n"
      "list ...` and receive byte-identical output to a standalone run.\n"
      "\n"
      "options:\n"
      "  --socket PATH      Unix-domain socket to listen on (required;\n"
      "                     a stale file at PATH is replaced)\n"
      "  --snapshot FILE    load the cache snapshot on boot, save on\n"
      "                     shutdown (cold boot when FILE is absent)\n"
      "  --jobs N           worker threads for the shared session\n"
      "                     (0 = hardware concurrency)\n"
      "  --max-lanes N      session-wide lane-count cap (default 16)\n"
      "  --drain-ms N       shutdown grace period before in-flight work\n"
      "                     is cancelled (default 2000)\n"
      "  --queue-limit N    per-connection pending-job bound (default 256)\n"
      "\n"
      "SIGTERM/SIGINT drain gracefully and exit 0.\n");
  return to == stdout ? 0 : 2;
}

bool parse_u32(const char* text, std::uint32_t& out) {
  char* end = nullptr;
  const unsigned long v = std::strtoul(text, &end, 10);
  if (end == text || *end != '\0' || v > 0xFFFFFFFFul) return false;
  out = static_cast<std::uint32_t>(v);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  tytra::dse::ServerOptions opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--help" || arg == "-h") return usage(stdout);
    std::uint32_t v = 0;
    if (arg == "--socket" && has_value) {
      opts.socket_path = argv[++i];
    } else if (arg == "--snapshot" && has_value) {
      opts.session.snapshot_path = argv[++i];
    } else if (arg == "--jobs" && has_value && parse_u32(argv[++i], v)) {
      opts.session.num_threads = v;
    } else if (arg == "--max-lanes" && has_value && parse_u32(argv[++i], v)) {
      opts.session.max_lanes = v;
    } else if (arg == "--drain-ms" && has_value && parse_u32(argv[++i], v)) {
      opts.drain_ms = v;
    } else if (arg == "--queue-limit" && has_value &&
               parse_u32(argv[++i], v)) {
      opts.queue_limit = v;
    } else {
      std::fprintf(stderr, "tytra-dsed: bad or incomplete flag '%s'\n",
                   arg.c_str());
      return usage(stderr);
    }
  }
  if (opts.socket_path.empty()) {
    std::fprintf(stderr, "tytra-dsed: --socket is required\n");
    return usage(stderr);
  }

  try {
    tytra::dse::Server server(std::move(opts));
    g_server = &server;
    std::signal(SIGTERM, handle_signal);
    std::signal(SIGINT, handle_signal);
    std::fprintf(stderr, "tytra-dsed: serving on %s\n",
                 server.socket_path().c_str());
    server.serve();
    const auto s = server.stats();
    std::fprintf(stderr,
                 "tytra-dsed: drained (%llu connections, %llu requests, "
                 "%llu jobs ok, %llu degraded)\n",
                 static_cast<unsigned long long>(s.connections),
                 static_cast<unsigned long long>(s.requests),
                 static_cast<unsigned long long>(s.jobs_ok),
                 static_cast<unsigned long long>(s.jobs_degraded));
    g_server = nullptr;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tytra-dsed: %s\n", e.what());
    return 1;
  }
  return 0;
}
