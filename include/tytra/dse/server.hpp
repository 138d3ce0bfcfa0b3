#pragma once

// tytra-dsed's engine room: a DSE-as-a-service server wrapping ONE warm
// dse::Session behind a Unix-domain socket. Every client that connects
// shares the session's cost cache, calibrated device table and
// persistent thread pool — the whole point of the daemon: the second
// client's campaign answers at the variant-key level from the first
// client's work, and nobody pays a cold start except the boot itself
// (which a snapshot can erase too).
//
// Wire protocol (see ARCHITECTURE.md "Daemon & wire protocol"): frames
// are length-prefixed JSON (support/framing.hpp, support/json.hpp). A
// request is one encoded dse::Command (dse/command.hpp): "cmd" ∈
// {explore, tune, campaign, list, lint, ping, shutdown} with the same
// fields the tytra-cc CLI accepts, decoded and planned by the same code.
// Responses stream: one {"type":"job"} frame per completed job, then one
// final {"type":"result"} (exit code + the byte-identical stdout a
// standalone tytra-cc run would have printed) or {"type":"error"}.
//
// Concurrency model — one rule: the Session is NOT thread-safe, so ONE
// scheduler thread executes every job and touches the Session and the
// kernels::Registry; it parallelizes *inside* each job via the session's
// pool. Per-connection reader threads only parse frames and enqueue
// work. Fairness is round-robin at job granularity across connections: a
// 30-job campaign and a 1-job explore interleave, so the giant cannot
// starve the small. Each connection owns a CancelToken wired into its
// jobs' Job::cancel — a disconnect cancels exactly that client's
// in-flight and queued work, nobody else's.
//
// Shutdown (SIGTERM/SIGINT via signal_shutdown(), or a "shutdown"
// request): stop accepting, give in-flight work drain_ms to finish,
// cancel whatever remains (clients see the standalone interrupt
// contract: completed jobs' results, exit 130), save the snapshot, and
// serve() returns so the daemon can exit 0.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "tytra/dse/session.hpp"

namespace tytra::dse {

struct ServerOptions {
  /// Filesystem path of the Unix-domain listening socket. Required; an
  /// existing socket file at the path is unlinked (the daemon assumes it
  /// is stale — pick per-instance paths when running several daemons).
  std::string socket_path;
  /// Grace period for in-flight and queued work on shutdown, in
  /// milliseconds. Work that outlives it is cancelled cooperatively
  /// (variant granularity) rather than abandoned.
  std::uint32_t drain_ms{2000};
  /// Per-connection admission bound: a request whose jobs would push the
  /// connection's pending-job count past this is rejected with an error
  /// frame instead of queued ("queue full").
  std::size_t queue_limit{256};
  /// The warm session everything shares. snapshot_path here gives the
  /// daemon its boot-warm / save-on-shutdown behavior.
  SessionOptions session;
};

/// Monotonic counters for ping responses and tests. Snapshot via
/// Server::stats(); individually relaxed-atomic.
struct ServerStats {
  std::uint64_t connections{0};      ///< accepted connections
  std::uint64_t requests{0};         ///< well-formed requests admitted
  std::uint64_t jobs_ok{0};          ///< jobs finished in JobState::Ok
  std::uint64_t jobs_degraded{0};    ///< jobs finished failed/timed-out/cancelled
  std::uint64_t frames_rejected{0};  ///< malformed frames answered with errors
};

class Server {
 public:
  /// Binds and listens on options.socket_path and constructs the shared
  /// Session (loading its snapshot, when configured). Throws
  /// std::runtime_error when the socket cannot be created and
  /// std::invalid_argument for an unusable path (empty, or longer than
  /// sun_path allows). Ignores SIGPIPE process-wide: a client that hangs
  /// up mid-response must surface as a write error, not kill the daemon.
  explicit Server(ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Runs the accept loop until shutdown is requested, then drains per
  /// the options and saves the snapshot. Call from the thread that owns
  /// the daemon's lifetime (main, or a test thread); reader and
  /// scheduler threads are managed internally and are all joined before
  /// this returns.
  void serve();

  /// Requests shutdown. Async-signal-safe (an atomic flag plus one
  /// self-pipe write), so SIGTERM/SIGINT handlers may call it directly.
  void signal_shutdown() noexcept;

  [[nodiscard]] const std::string& socket_path() const;
  [[nodiscard]] ServerStats stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace tytra::dse
