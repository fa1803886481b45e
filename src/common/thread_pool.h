#ifndef WICLEAN_COMMON_THREAD_POOL_H_
#define WICLEAN_COMMON_THREAD_POOL_H_

#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "common/annotations.h"
#include "common/mutex.h"

namespace wiclean {

/// Fixed-size worker pool. Mining uses it in two places: WindowSearch::Run
/// mines the non-overlapping windows of a round concurrently (the paper's
/// "embarrassingly parallel" decomposition, §4.3/§6.2), and PatternMiner
/// evaluates the candidates of one expansion generation concurrently. It
/// also runs the parse/diff stage of the dump-ingestion pipeline
/// (dump/pipeline.h).
///
/// Tasks are plain std::function<void()>; results flow through captured state
/// owned by the caller. Wait() blocks until every submitted task has finished.
///
/// Reuse semantics: the pool stays alive until destruction — Submit after
/// Wait is valid and starts a new batch (repeated ParallelFor calls on one
/// pool are exactly such Submit/Wait cycles). Submit and Wait
/// may be called concurrently from multiple threads; Wait returns at an
/// instant when the queue was observed empty with no task running, so a Wait
/// racing a Submit may or may not cover the racing task.
///
/// Thread-safety contract is compiler-checked: all mutable state is
/// WC_GUARDED_BY(mu_), so an unsynchronized access anywhere in the
/// implementation fails the -Werror=thread-safety build (see
/// tests/negcompile/).
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (>= 1; 0 is clamped to 1).
  explicit ThreadPool(size_t num_threads);

  /// Drains outstanding tasks, then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Never blocks (unbounded queue).
  void Submit(std::function<void()> task) WC_EXCLUDES(mu_);

  /// Blocks until the queue is empty and no task is executing.
  void Wait() WC_EXCLUDES(mu_);

  size_t num_threads() const { return workers_.size(); }

  /// Runs fn(i) for i in [0, n) across the pool and waits for completion.
  /// fn must be safe to invoke concurrently for distinct indices.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn)
      WC_EXCLUDES(mu_);

#ifdef WICLEAN_NEGATIVE_COMPILE_UNLOCKED
  /// Negative-compilation fixture (tests/negcompile/): reads queue_ without
  /// holding mu_, which -Werror=thread-safety must reject. Never defined in
  /// real builds — only the negcompile test defines the macro.
  size_t UnsynchronizedQueueSizeForNegativeCompileTest() const {
    // This method is intentionally unlocked: it exists only so the
    // negcompile test can prove the compiler rejects the unguarded read.
    // wican:allow(unguarded-access): negative-compilation fixture by design
    return queue_.size();
  }
#endif

 private:
  void WorkerLoop() WC_EXCLUDES(mu_);

  Mutex mu_;
  CondVar task_ready_;
  CondVar all_done_;
  std::deque<std::function<void()>> queue_ WC_GUARDED_BY(mu_);
  size_t active_ WC_GUARDED_BY(mu_) = 0;
  bool shutting_down_ WC_GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_;  // written only in the constructor
};

}  // namespace wiclean

#endif  // WICLEAN_COMMON_THREAD_POOL_H_
