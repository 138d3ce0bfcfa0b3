#pragma once

// Persistent worker threads for the DSE engine. Before this existed,
// every parallel sweep spawned and joined a fresh std::thread pool —
// fine for one long sweep, ruinous for the serving shape the ROADMAP
// targets: a campaign of many small {workload x size x device} jobs
// paid thread creation and teardown per job while most cores sat idle
// between joins. A ThreadPool is created once (dse::Session does so
// lazily, on the first batch that resolves to more than one worker) and
// executes any number of batches over its lifetime.
//
// Execution is collective: run_batch(participants, fn) invokes
// fn(worker_index) exactly once for every index in [0, participants) —
// index 0 on the calling thread (which works instead of idling at the
// barrier), indices 1..participants-1 on pool workers — and returns when
// every invocation has. Work distribution stays with the caller (the
// DSE engine drains an atomic cursor inside fn), which keeps the pool
// free of per-task std::function allocations on the hot path.
//
// run_batch is not reentrant: one batch at a time (dse::Session already
// requires one job or campaign at a time, which implies this). A batch
// function that throws does not wedge the pool — the first exception is
// rethrown at the run_batch call site after every participant finished.
// When several participants throw in one batch, only one exception can
// be rethrown; the others are *counted*, logged once per batch to
// stderr, and exposed via suppressed_exception_count(), so multi-fault
// batches are observable instead of silently collapsing to one error.

#include <cstdint>
#include <functional>
#include <memory>

namespace tytra::dse {

class ThreadPool {
 public:
  /// Runs one participant of a batch; receives the participant's worker
  /// index (stable across batches for pool workers).
  using BatchFn = std::function<void(std::uint32_t)>;

  /// Spawns `workers` persistent threads (worker indices 1..workers).
  /// If thread creation fails partway (e.g. EAGAIN), the threads that
  /// did start are joined and the system error propagates.
  explicit ThreadPool(std::uint32_t workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of pool-owned threads. A batch can have up to
  /// worker_count() + 1 participants: the caller is participant 0.
  [[nodiscard]] std::uint32_t worker_count() const;

  /// Invokes fn(i) once for every i in [0, participants) — fn(0) on the
  /// calling thread — and blocks until all invocations return. Throws
  /// std::invalid_argument when fn is null or participants exceeds
  /// worker_count() + 1. If any invocation throws, the first exception
  /// (caller's first, then workers') is rethrown after the batch drains;
  /// additional exceptions from the same batch are counted and logged
  /// (see suppressed_exception_count()), never silently dropped.
  void run_batch(std::uint32_t participants, const BatchFn& fn);

  /// Exceptions thrown by batch participants over the pool's lifetime
  /// that could not be rethrown because another participant's exception
  /// won the batch. Monotone; 0 in a healthy pool.
  [[nodiscard]] std::uint64_t suppressed_exception_count() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace tytra::dse
