// Fixed-size thread pool used to parallelize per-task-set analysis in the
// experiment sweeps (each sweep point analyzes many independent task sets).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace mcs::support {

/// A minimal work-queue thread pool.
///
/// Tasks are std::function<void()>.  An exception escaping a task is
/// captured (the *first* one wins; later ones are dropped) and rethrown
/// from the next wait_idle() call once the queue has drained, so one bad
/// task set aborts a sweep cleanly instead of std::terminate-ing the whole
/// process.  Destruction waits for all queued work (RAII: the pool owns its
/// threads); an error never surfaced through wait_idle() is discarded.
class ThreadPool {
 public:
  /// Spawns `worker_count` threads (0 means hardware_concurrency, min 1).
  explicit ThreadPool(std::size_t worker_count = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues one task. Must not be called after wait_idle began returning
  /// concurrently with destruction.
  void submit(std::function<void()> task);

  /// Blocks until every submitted task has finished, then rethrows the
  /// first exception any task raised since the last wait_idle() (clearing
  /// it).  The pool remains usable after the rethrow.
  void wait_idle();

  std::size_t worker_count() const noexcept { return workers_.size(); }

  /// Tasks queued or currently executing.  A snapshot — by the time the
  /// caller looks at it the pool may have drained further; useful for
  /// progress reporting, not for synchronization.
  std::size_t pending();

 private:
  void worker_loop();

  std::mutex mutex_;
  std::condition_variable wake_worker_;
  std::condition_variable idle_;
  std::deque<std::function<void()>> queue_;
  std::exception_ptr first_error_;  ///< first task exception, guarded by mutex_
  std::size_t in_flight_ = 0;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

/// Exception surfaced by parallel_for when a body invocation throws: wraps
/// the original exception and remembers *which* index failed, so a sweep
/// over thousands of task sets can report the culprit instead of a bare
/// what().  Derives from std::runtime_error: the what() text embeds the
/// index and the original message, so callers that only catch
/// std::runtime_error keep working.
class ParallelForError : public std::runtime_error {
 public:
  ParallelForError(std::size_t index, const std::string& message,
                   std::exception_ptr cause)
      : std::runtime_error(message), index_(index), cause_(std::move(cause)) {}

  /// The loop index whose body threw.
  std::size_t index() const noexcept { return index_; }
  /// The original exception (never null); rethrow to inspect its type.
  std::exception_ptr cause() const noexcept { return cause_; }

 private:
  std::size_t index_;
  std::exception_ptr cause_;
};

/// Runs `fn(i)` for i in [0, count) across the pool and waits for all.
/// A throwing body surfaces as ParallelForError carrying the index.
void parallel_for(ThreadPool& pool, std::size_t count,
                  const std::function<void(std::size_t)>& fn);

}  // namespace mcs::support
