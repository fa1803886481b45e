#ifndef WICLEAN_COMMON_BOUNDED_QUEUE_H_
#define WICLEAN_COMMON_BOUNDED_QUEUE_H_

#include <chrono>
#include <cstddef>
#include <deque>
#include <utility>

#include "common/annotations.h"
#include "common/mutex.h"

namespace wiclean {

/// Bounded multi-producer/multi-consumer queue with blocking backpressure —
/// the hand-off buffer between ingestion pipeline stages. A producer that
/// races ahead of slow consumers blocks in Push() once `capacity` items are
/// queued, which is what keeps the streaming dump reader's memory bounded by
/// `capacity` pages rather than the dump.
///
/// Lifecycle:
///   - Close():  no further Push succeeds; Pop drains the remaining items and
///               then returns false. The normal end-of-stream signal.
///   - Cancel(): discards queued items and wakes every blocked caller; both
///               Push and Pop return false immediately. The error-abort
///               signal — a failed consumer cancels so a producer blocked on
///               a full queue cannot hang.
///
/// All methods are safe to call concurrently from any thread; the shared
/// state is WC_GUARDED_BY(mu_), so the -Werror=thread-safety build proves
/// that every access is locked.
template <typename T>
class BoundedQueue {
 public:
  /// Capacity 0 is clamped to 1 (a zero-capacity queue could never accept).
  explicit BoundedQueue(size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Blocks while the queue is full. Returns true once `item` is enqueued;
  /// false if the queue was closed or cancelled (item dropped).
  bool Push(T item) WC_EXCLUDES(mu_) {
    {
      MutexLock lock(&mu_);
      while (!(closed_ || cancelled_ || items_.size() < capacity_)) {
        not_full_.Wait(&mu_);
      }
      if (closed_ || cancelled_) return false;
      items_.push_back(std::move(item));
    }
    not_empty_.NotifyOne();
    return true;
  }

  /// Push with a deadline — the admission-control primitive. Waits at most
  /// `timeout` for space; returns false if the queue stayed full for the
  /// whole window (the caller's explicit-overload signal), or if the queue
  /// was closed or cancelled. Spurious-wake safe: the predicate is re-checked
  /// against a fixed steady_clock deadline, so an early wakeup just waits for
  /// the remainder. A zero or negative timeout degrades to a non-blocking
  /// try-push.
  bool TryPushFor(T item, std::chrono::milliseconds timeout)
      WC_EXCLUDES(mu_) {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    {
      MutexLock lock(&mu_);
      while (!(closed_ || cancelled_ || items_.size() < capacity_)) {
        const auto now = std::chrono::steady_clock::now();
        if (now >= deadline) return false;
        not_full_.WaitFor(&mu_, deadline - now);
      }
      if (closed_ || cancelled_) return false;
      items_.push_back(std::move(item));
    }
    not_empty_.NotifyOne();
    return true;
  }

  /// Blocks while the queue is empty and still open. Returns true with *out
  /// filled, or false when the queue is cancelled or closed-and-drained.
  bool Pop(T* out) WC_EXCLUDES(mu_) {
    {
      MutexLock lock(&mu_);
      while (!(cancelled_ || closed_ || !items_.empty())) {
        not_empty_.Wait(&mu_);
      }
      if (cancelled_ || items_.empty()) return false;  // closed and drained
      *out = std::move(items_.front());
      items_.pop_front();
    }
    not_full_.NotifyOne();
    return true;
  }

  /// Ends the stream: queued items remain poppable, new pushes fail.
  void Close() WC_EXCLUDES(mu_) {
    {
      MutexLock lock(&mu_);
      closed_ = true;
    }
    not_full_.NotifyAll();
    not_empty_.NotifyAll();
  }

  /// Aborts the stream: queued items are discarded, everyone wakes up.
  void Cancel() WC_EXCLUDES(mu_) {
    {
      MutexLock lock(&mu_);
      cancelled_ = true;
      items_.clear();
    }
    not_full_.NotifyAll();
    not_empty_.NotifyAll();
  }

  bool cancelled() const WC_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return cancelled_;
  }

  size_t size() const WC_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return items_.size();
  }

  size_t capacity() const { return capacity_; }

 private:
  const size_t capacity_;
  mutable Mutex mu_;
  CondVar not_full_;
  CondVar not_empty_;
  std::deque<T> items_ WC_GUARDED_BY(mu_);
  bool closed_ WC_GUARDED_BY(mu_) = false;
  bool cancelled_ WC_GUARDED_BY(mu_) = false;
};

}  // namespace wiclean

#endif  // WICLEAN_COMMON_BOUNDED_QUEUE_H_
