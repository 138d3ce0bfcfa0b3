#pragma once

// Cooperative cancellation and deadlines for the DSE engine. A
// CancelToken is a one-way latch the engine polls at variant granularity
// (each task of evaluate_tasks, each tune step): flipping it never
// interrupts an evaluation mid-flight, it stops the *next* one — so
// results already computed stay valid and the shared cache stays
// consistent. request_cancel() is async-signal-safe (one relaxed atomic
// store), which is the point: tytra-cc flips the token from its SIGINT
// handler and the campaign winds down cleanly instead of dying with a
// partial stdout blob.
//
// Deadlines ride the same checkpoints: Job::deadline_seconds is a
// wall-clock budget measured from the start of the explore/tune/run
// call; a task drawn after the budget elapsed marks its job timed out
// instead of running.
//
// How an expiry/cancel surfaces depends on the entry point: single-job
// calls (explore/tune) throw CancelledError / DeadlineExceeded, while
// Session::run(Campaign) degrades per job — the affected jobs report
// JobState::Cancelled / TimedOut and every completed job's results are
// kept (see dse/session.hpp).

#include <atomic>
#include <stdexcept>
#include <string>

namespace tytra::dse {

/// One-way cancellation latch. Safe to share between threads and to flip
/// from a signal handler; cannot be re-armed (make a new token per run).
class CancelToken {
 public:
  /// Requests cancellation. Async-signal-safe: one relaxed atomic store.
  void request_cancel() noexcept {
    cancelled_.store(true, std::memory_order_relaxed);
  }
  [[nodiscard]] bool cancelled() const noexcept {
    return cancelled_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> cancelled_{false};
};

/// Thrown by single-job entry points (explore/tune/baseline) when the
/// run's CancelToken was flipped. Campaigns do not throw this — they
/// report JobState::Cancelled per job instead.
class CancelledError : public std::runtime_error {
 public:
  CancelledError() : std::runtime_error("cancelled (CancelToken requested)") {}
};

/// Thrown by single-job entry points when the wall-clock budget elapsed.
class DeadlineExceeded : public std::runtime_error {
 public:
  explicit DeadlineExceeded(double budget_seconds)
      : std::runtime_error("deadline exceeded (budget " +
                           std::to_string(budget_seconds) + " s)") {}
};

}  // namespace tytra::dse
