#include "tytra/dse/pool.hpp"

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif

#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <thread>
#include <vector>

#include "tytra/support/thread_annotations.hpp"

namespace tytra::dse {

struct ThreadPool::Impl {
  tytra::Mutex mu;
  /// Workers park here between batches. condition_variable_any waits on
  /// the annotated Mutex directly, so the capability stays visible to the
  /// thread-safety analysis across the wait.
  std::condition_variable_any work_cv;
  std::condition_variable_any done_cv;  ///< run_batch parks here until drained

  // The current batch, published under `mu`. `generation` is the wake
  // token: a worker remembers the last generation it served and a new
  // batch is simply "generation changed". Workers whose index is not
  // drafted (>= participants) observe the new generation and go straight
  // back to sleep without touching `outstanding`.
  const BatchFn* batch TYTRA_GUARDED_BY(mu){nullptr};
  std::uint32_t participants TYTRA_GUARDED_BY(mu){0};
  std::uint64_t generation TYTRA_GUARDED_BY(mu){0};
  /// Drafted pool workers still running.
  std::uint32_t outstanding TYTRA_GUARDED_BY(mu){0};
  std::exception_ptr batch_error TYTRA_GUARDED_BY(mu);
  /// Worker exceptions this batch.
  std::uint32_t batch_thrown TYTRA_GUARDED_BY(mu){0};
  bool stop TYTRA_GUARDED_BY(mu){false};

  /// Lifetime count of exceptions that lost the who-gets-rethrown race
  /// (atomic so the accessor needs no lock while a batch runs).
  std::atomic<std::uint64_t> suppressed_total{0};

  std::vector<std::thread> threads;

#ifdef __linux__
  /// The process's CPU mask when the workers were placed; each worker
  /// returns to it once it runs on the CPU it was placed on.
  cpu_set_t process_mask{};
  bool placed{false};

  /// Pins each new worker to its own CPU of the process mask, round-robin
  /// over the CPUs other than the spawner's. A new thread is otherwise
  /// queued on the spawner's CPU and reaches an idle one only at a later
  /// scheduler tick, so a fresh pool ran its first batches nearly
  /// serially. Runs under `mu`, which every worker takes first, so no
  /// worker runs before it is placed. Does nothing when the mask has one
  /// CPU or a call fails.
  void place_workers() TYTRA_REQUIRES(mu) {
    if (sched_getaffinity(0, sizeof process_mask, &process_mask) != 0 ||
        CPU_COUNT(&process_mask) < 2) {
      return;
    }
    const int self = sched_getcpu();
    std::vector<int> cpus;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (c != self && CPU_ISSET(c, &process_mask)) cpus.push_back(c);
    }
    for (std::size_t i = 0; i < threads.size(); ++i) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpus[i % cpus.size()], &one);
      if (pthread_setaffinity_np(threads[i].native_handle(), sizeof one,
                                 &one) == 0) {
        placed = true;
      }
    }
  }
#endif

  void worker_main(std::uint32_t index) {
    { MutexLock lock(mu); }  // the constructor places this thread first
#ifdef __linux__
    // Now running on its own CPU: drop the pin so nothing stays bound.
    if (placed) {
      (void)pthread_setaffinity_np(pthread_self(), sizeof process_mask,
                                   &process_mask);
    }
#endif
    std::uint64_t seen = 0;
    for (;;) {
      const BatchFn* fn = nullptr;
      {
        MutexLock lock(mu);
        while (!stop && generation == seen) work_cv.wait(mu);
        if (stop) return;
        seen = generation;
        if (index >= participants) continue;  // not drafted for this batch
        fn = batch;
      }
      std::exception_ptr error;
      try {
        (*fn)(index);
      } catch (...) {
        error = std::current_exception();
      }
      {
        MutexLock lock(mu);
        if (error) {
          ++batch_thrown;
          if (!batch_error) batch_error = error;
        }
        if (--outstanding == 0) done_cv.notify_all();
      }
    }
  }

  void shutdown() {
    {
      MutexLock lock(mu);
      stop = true;
    }
    work_cv.notify_all();
    for (std::thread& t : threads) t.join();
  }
};

ThreadPool::ThreadPool(std::uint32_t workers)
    : impl_(std::make_unique<Impl>()) {
  impl_->threads.reserve(workers);
  try {
    MutexLock lock(impl_->mu);
    for (std::uint32_t i = 0; i < workers; ++i) {
      impl_->threads.emplace_back(&Impl::worker_main, impl_.get(), i + 1);
    }
#ifdef __linux__
    impl_->place_workers();
#endif
  } catch (...) {
    // Spawn failed partway (e.g. EAGAIN): join what started and surface
    // the error instead of terminating in a joinable thread's destructor.
    impl_->shutdown();
    throw;
  }
}

ThreadPool::~ThreadPool() { impl_->shutdown(); }

std::uint32_t ThreadPool::worker_count() const {
  return static_cast<std::uint32_t>(impl_->threads.size());
}

void ThreadPool::run_batch(std::uint32_t participants, const BatchFn& fn) {
  if (!fn) {
    throw std::invalid_argument("ThreadPool::run_batch: batch function is null");
  }
  if (participants == 0) return;
  if (participants > worker_count() + 1) {
    throw std::invalid_argument(
        "ThreadPool::run_batch: participants exceed worker_count() + 1");
  }
  if (participants == 1) {  // nothing to fan out; run inline
    fn(0);
    return;
  }
  {
    MutexLock lock(impl_->mu);
    impl_->batch = &fn;
    impl_->participants = participants;
    impl_->outstanding = participants - 1;
    impl_->batch_error = nullptr;
    impl_->batch_thrown = 0;
    ++impl_->generation;
  }
  impl_->work_cv.notify_all();

  // The caller is participant 0: it works the batch instead of idling at
  // the barrier, so `participants` really means that many concurrent
  // executors. Its exception still waits for the pool workers to drain —
  // the batch state (slots, cursors) must be quiescent before unwinding.
  std::exception_ptr caller_error;
  try {
    fn(0);
  } catch (...) {
    caller_error = std::current_exception();
  }
  std::exception_ptr worker_error;
  std::uint32_t thrown = 0;
  {
    MutexLock lock(impl_->mu);
    while (impl_->outstanding != 0) impl_->done_cv.wait(impl_->mu);
    impl_->batch = nullptr;
    worker_error = impl_->batch_error;
    impl_->batch_error = nullptr;
    thrown = impl_->batch_thrown;
    impl_->batch_thrown = 0;
  }
  // Only one exception can be rethrown per batch; every other one is
  // counted and logged so a multi-fault batch stays observable (the old
  // behavior dropped them without a trace).
  if (caller_error) ++thrown;
  if (thrown > 1) {
    const std::uint32_t suppressed = thrown - 1;
    impl_->suppressed_total.fetch_add(suppressed, std::memory_order_relaxed);
    std::fprintf(stderr,
                 "tytra: warning: thread pool: %u of %u exception(s) in one "
                 "batch suppressed (first rethrown)\n",
                 suppressed, thrown);
  }
  if (caller_error) std::rethrow_exception(caller_error);
  if (worker_error) std::rethrow_exception(worker_error);
}

std::uint64_t ThreadPool::suppressed_exception_count() const {
  return impl_->suppressed_total.load(std::memory_order_relaxed);
}

}  // namespace tytra::dse
