#include "support/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

namespace {

using mcs::support::parallel_for;
using mcs::support::ThreadPool;

TEST(ThreadPool, RunsAllSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturnsImmediately) {
  ThreadPool pool(2);
  pool.wait_idle();
  SUCCEED();
}

TEST(ThreadPool, DestructorDrainsQueue) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.submit([&counter] { counter.fetch_add(1); });
    }
    pool.wait_idle();
  }
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(3);
  std::vector<int> hits(200, 0);
  parallel_for(pool, hits.size(), [&hits](std::size_t i) { hits[i] += 1; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 200);
  for (const int h : hits) {
    EXPECT_EQ(h, 1);
  }
}

TEST(ThreadPool, SingleWorkerIsSequentialSafe) {
  ThreadPool pool(1);
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    pool.submit([&order, i] { order.push_back(i); });
  }
  pool.wait_idle();
  ASSERT_EQ(order.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

TEST(ThreadPool, WorkerCountDefaultsPositive) {
  ThreadPool pool;
  EXPECT_GE(pool.worker_count(), 1u);
}

TEST(ThreadPool, TaskExceptionPropagatesThroughWaitIdle) {
  ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("bad task set"); });
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
}

TEST(ThreadPool, RemainingTasksStillRunWhenOneThrows) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 50; ++i) {
    pool.submit([&counter, i] {
      if (i == 10) throw std::runtime_error("boom");
      counter.fetch_add(1);
    });
  }
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  // The throwing task did not take the queue (or the process) down.
  EXPECT_EQ(counter.load(), 49);
}

TEST(ThreadPool, FirstExceptionWinsAndErrorIsClearedAfterRethrow) {
  ThreadPool pool(1);  // single worker: deterministic order
  pool.submit([] { throw std::runtime_error("first"); });
  pool.submit([] { throw std::logic_error("second"); });
  try {
    pool.wait_idle();
    FAIL() << "wait_idle did not rethrow";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "first");
  }
  // The pool stays usable: accounting survived the throw paths and the
  // stored error was consumed by the rethrow.
  std::atomic<int> counter{0};
  pool.submit([&counter] { counter.fetch_add(1); });
  EXPECT_NO_THROW(pool.wait_idle());
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPool, ParallelForPropagatesTaskExceptions) {
  ThreadPool pool(3);
  EXPECT_THROW(parallel_for(pool, 20,
                            [](std::size_t i) {
                              if (i == 7) {
                                throw std::runtime_error("element 7");
                              }
                            }),
               std::runtime_error);
  // Subsequent parallel_for calls start from a clean slate.
  std::atomic<int> counter{0};
  parallel_for(pool, 10, [&counter](std::size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 10);
}

TEST(ThreadPool, ParallelForErrorCarriesIndexAndCause) {
  ThreadPool pool(3);
  try {
    parallel_for(pool, 20, [](std::size_t i) {
      if (i == 7) throw std::logic_error("bad formulation");
    });
    FAIL() << "parallel_for did not rethrow";
  } catch (const mcs::support::ParallelForError& error) {
    EXPECT_EQ(error.index(), 7u);
    EXPECT_NE(std::string(error.what()).find("index 7"), std::string::npos);
    EXPECT_NE(std::string(error.what()).find("bad formulation"),
              std::string::npos);
    ASSERT_NE(error.cause(), nullptr);
    EXPECT_THROW(std::rethrow_exception(error.cause()), std::logic_error);
  }
}

}  // namespace
