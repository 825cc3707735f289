#include "support/thread_pool.hpp"

#include <algorithm>
#include <utility>

#include "support/contracts.hpp"

namespace mcs::support {

ThreadPool::ThreadPool(std::size_t worker_count) {
  if (worker_count == 0) {
    worker_count = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(worker_count);
  for (std::size_t i = 0; i < worker_count; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock lock(mutex_);
    stopping_ = true;
  }
  wake_worker_.notify_all();
  for (auto& worker : workers_) {
    worker.join();
  }
}

void ThreadPool::submit(std::function<void()> task) {
  MCS_REQUIRE(task != nullptr, "submit: empty task");
  {
    std::unique_lock lock(mutex_);
    MCS_REQUIRE(!stopping_, "submit after shutdown began");
    queue_.push_back(std::move(task));
  }
  wake_worker_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(mutex_);
  idle_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
  if (first_error_) {
    // Hand the first captured task exception to exactly one waiter; the
    // pool stays usable for further submissions.
    std::exception_ptr error = std::exchange(first_error_, nullptr);
    lock.unlock();
    std::rethrow_exception(error);
  }
}

std::size_t ThreadPool::pending() {
  std::unique_lock lock(mutex_);
  return queue_.size() + in_flight_;
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      wake_worker_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        return;  // stopping_ and drained
      }
      task = std::move(queue_.front());
      queue_.pop_front();
      ++in_flight_;
    }
    std::exception_ptr error;
    try {
      task();
    } catch (...) {
      error = std::current_exception();
    }
    bool drained = false;
    {
      std::unique_lock lock(mutex_);
      if (error && !first_error_) {
        first_error_ = std::move(error);
      }
      --in_flight_;
      drained = queue_.empty() && in_flight_ == 0;
    }
    if (drained) {
      // Notify after unlocking so waiters don't wake straight into a held
      // mutex.
      idle_.notify_all();
    }
  }
}

namespace {

/// Runs fn(i), converting any escaping exception into a ParallelForError
/// that records i.  An already-wrapped error passes through untouched (a
/// body may itself run a nested parallel loop).
void run_indexed(const std::function<void(std::size_t)>& fn, std::size_t i) {
  auto message = [i](const char* detail) {
    std::string text = "parallel_for: index ";
    text += std::to_string(i);
    text += ": ";
    text += detail;
    return text;
  };
  try {
    fn(i);
  } catch (const ParallelForError&) {
    throw;
  } catch (const std::exception& e) {
    throw ParallelForError(i, message(e.what()), std::current_exception());
  } catch (...) {
    throw ParallelForError(i, message("unknown exception"),
                           std::current_exception());
  }
}

}  // namespace

void parallel_for(ThreadPool& pool, std::size_t count,
                  const std::function<void(std::size_t)>& fn) {
  for (std::size_t i = 0; i < count; ++i) {
    pool.submit([&fn, i] { run_indexed(fn, i); });
  }
  pool.wait_idle();
}

}  // namespace mcs::support
