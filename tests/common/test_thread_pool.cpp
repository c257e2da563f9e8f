#include "common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace oagrid {
namespace {

TEST(ThreadPool, ZeroWorkersRunsInline) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.worker_count(), 0u);
  std::vector<std::size_t> order;
  pool.parallel_for(0, 8, [&](std::size_t i) { order.push_back(i); });
  std::vector<std::size_t> expected(8);
  std::iota(expected.begin(), expected.end(), 0u);
  EXPECT_EQ(order, expected);  // sequential and in order
}

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(5000);
  pool.parallel_for(0, hits.size(), [&](std::size_t i) { hits[i]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool touched = false;
  pool.parallel_for(3, 3, [&](std::size_t) { touched = true; });
  pool.parallel_for(5, 2, [&](std::size_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(ThreadPool, ReusableAcrossManyRegions) {
  // The whole point of the pool: thousands of cheap regions back to back
  // (the climate model's substeps). Must not deadlock or drop work.
  ThreadPool pool(3);
  std::atomic<long long> total{0};
  for (int region = 0; region < 2000; ++region)
    pool.parallel_for(0, 16, [&](std::size_t i) {
      total += static_cast<long long>(i);
    });
  EXPECT_EQ(total.load(), 2000LL * (15 * 16 / 2));
}

TEST(ThreadPool, ActuallyRunsConcurrently) {
  if (default_parallelism() < 2)
    GTEST_SKIP() << "single hardware thread: overlap is preemption luck";
  ThreadPool pool(3);
  std::atomic<int> inside{0};
  std::atomic<int> peak{0};
  pool.parallel_for(0, 64, [&](std::size_t) {
    const int now = ++inside;
    int seen = peak.load();
    while (now > seen && !peak.compare_exchange_weak(seen, now)) {
    }
    // Busy-wait briefly so overlap is observable (atomic defeats the
    // optimizer without deprecated volatile arithmetic).
    std::atomic<int> spin{0};
    while (spin.fetch_add(1, std::memory_order_relaxed) < 20000) {
    }
    --inside;
  });
  EXPECT_GT(peak.load(), 1);
}

TEST(ThreadPool, PropagatesFirstException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(0, 100,
                                 [](std::size_t i) {
                                   if (i == 13) throw std::runtime_error("x");
                                 }),
               std::runtime_error);
  // The pool survives the exception and keeps working.
  std::atomic<int> count{0};
  pool.parallel_for(0, 10, [&](std::size_t) { count++; });
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, MoreWorkersThanWork) {
  ThreadPool pool(8);
  std::atomic<int> count{0};
  pool.parallel_for(0, 2, [&](std::size_t) { count++; });
  EXPECT_EQ(count.load(), 2);
}

TEST(ThreadPool, DestructionWithIdleWorkersIsClean) {
  for (int i = 0; i < 50; ++i) {
    ThreadPool pool(4);
    pool.parallel_for(0, 4, [](std::size_t) {});
  }
}

TEST(ThreadPool, NestedRegionsRunInlineWithoutDeadlock) {
  // Re-entering the pool from inside one of its own regions must not wait
  // for workers that are busy in the outer region: the nested-use guard runs
  // the inner loop inline on the calling thread.
  ThreadPool pool(3);
  std::atomic<long long> total{0};
  pool.parallel_for(0, 8, [&](std::size_t) {
    pool.parallel_for(0, 8, [&](std::size_t j) {
      total += static_cast<long long>(j);
    });
  });
  EXPECT_EQ(total.load(), 8LL * 28);
}

TEST(ThreadPool, ConcurrentCallersBothComplete) {
  // Two threads driving regions on the same pool: their regions overlap on
  // the shared workers and neither caller's iterations are lost or
  // duplicated.
  ThreadPool pool(2);
  std::atomic<long long> a{0};
  std::atomic<long long> b{0};
  std::thread ta([&] {
    for (int region = 0; region < 200; ++region)
      pool.parallel_for(0, 32, [&](std::size_t i) {
        a += static_cast<long long>(i);
      });
  });
  std::thread tb([&] {
    for (int region = 0; region < 200; ++region)
      pool.parallel_for(0, 32, [&](std::size_t i) {
        b += static_cast<long long>(i);
      });
  });
  ta.join();
  tb.join();
  EXPECT_EQ(a.load(), 200LL * (31 * 32 / 2));
  EXPECT_EQ(b.load(), 200LL * (31 * 32 / 2));
}

// --- regions from independent callers overlap on the shared workers --------

/// Polls `done` until it holds or `limit` passes; returns whether it held.
/// A region that cannot start until another returns makes such a wait run
/// out, so these tests fail rather than hang.
template <typename Pred>
bool wait_until(Pred done, std::chrono::seconds limit) {
  const auto deadline = std::chrono::steady_clock::now() + limit;
  while (!done()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return true;
}

constexpr std::chrono::seconds kOverlapLimit{10};

TEST(ThreadPool, RegionReturnsWhileAnotherCallersBodyWaitsForIt) {
  // Caller A's body waits for caller B's whole region. B must run next to A,
  // not queue behind it.
  ThreadPool pool(2);
  std::atomic<bool> a_inside{false};
  std::atomic<bool> b_returned{false};
  std::atomic<bool> a_saw_b_return{false};
  std::thread a([&] {
    pool.parallel_for(0, 4, [&](std::size_t i) {
      if (i != 0) return;
      a_inside = true;
      a_saw_b_return = wait_until([&] { return b_returned.load(); },
                                  kOverlapLimit);
    });
  });
  ASSERT_TRUE(wait_until([&] { return a_inside.load(); }, kOverlapLimit));
  std::atomic<long long> b_total{0};
  std::thread b([&] {
    pool.parallel_for(0, 64, [&](std::size_t i) {
      b_total += static_cast<long long>(i);
    });
    b_returned = true;
  });
  b.join();
  a.join();
  EXPECT_TRUE(a_saw_b_return.load());
  EXPECT_EQ(b_total.load(), 63LL * 64 / 2);
}

TEST(ThreadPool, ExceptionReachesOnlyItsOwnCaller) {
  // A's region throws while B's region runs next to it: only A sees the
  // exception, and B still covers every index exactly once.
  ThreadPool pool(3);
  for (int round = 0; round < 20; ++round) {
    std::atomic<bool> a_inside{false};
    std::atomic<bool> b_inside{false};
    std::atomic<bool> overlapped{true};
    std::vector<std::atomic<int>> hits(500);
    bool a_threw = false;
    bool b_threw = false;
    std::thread a([&] {
      try {
        pool.parallel_for(0, 100, [&](std::size_t i) {
          if (i != 0) return;
          a_inside = true;
          if (!wait_until([&] { return b_inside.load(); }, kOverlapLimit))
            overlapped = false;
          throw std::runtime_error("region A");
        });
      } catch (const std::runtime_error& error) {
        a_threw = std::string(error.what()) == "region A";
      }
    });
    std::thread b([&] {
      try {
        pool.parallel_for(0, hits.size(), [&](std::size_t i) {
          b_inside = true;
          if (i == 0 &&
              !wait_until([&] { return a_inside.load(); }, kOverlapLimit))
            overlapped = false;
          hits[i]++;
        });
      } catch (...) {
        b_threw = true;
      }
    });
    a.join();
    b.join();
    ASSERT_TRUE(overlapped.load()) << "round " << round;
    EXPECT_TRUE(a_threw) << "round " << round;
    EXPECT_FALSE(b_threw) << "round " << round;
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPool, ParallelTransformReturnsOrderedResults) {
  ThreadPool pool(4);
  const std::vector<std::size_t> squares =
      parallel_transform(pool, 100, [](std::size_t i) { return i * i; });
  ASSERT_EQ(squares.size(), 100u);
  for (std::size_t i = 0; i < squares.size(); ++i)
    EXPECT_EQ(squares[i], i * i);
}

TEST(ThreadPool, ParallelTransformEmptyAndExceptional) {
  ThreadPool pool(2);
  EXPECT_TRUE(
      parallel_transform(pool, 0, [](std::size_t i) { return i; }).empty());
  EXPECT_THROW(parallel_transform(pool, 50,
                                  [](std::size_t i) -> int {
                                    if (i == 7) throw std::runtime_error("x");
                                    return 0;
                                  }),
               std::runtime_error);
}

TEST(ThreadPool, SharedPoolIsASingleton) {
  EXPECT_EQ(&shared_pool(), &shared_pool());
}

TEST(DefaultParallelism, AtLeastOne) {
  EXPECT_GE(default_parallelism(), 1u);
}

// --- the shared pool: every parallel loop of the library runs on it ---------

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(1000);
  shared_pool().parallel_for(0, hits.size(), [&](std::size_t i) { hits[i]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  bool touched = false;
  shared_pool().parallel_for(5, 5, [&](std::size_t) { touched = true; });
  shared_pool().parallel_for(7, 3, [&](std::size_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(ParallelFor, RespectsOffsetRange) {
  std::atomic<long long> sum{0};
  shared_pool().parallel_for(10, 20, [&](std::size_t i) {
    sum += static_cast<long long>(i);
  });
  EXPECT_EQ(sum.load(), 145);  // 10+...+19
}

TEST(ParallelFor, PropagatesException) {
  EXPECT_THROW(shared_pool().parallel_for(0, 100,
                                          [](std::size_t i) {
                                            if (i == 42)
                                              throw std::runtime_error("boom");
                                          }),
               std::runtime_error);
}

TEST(ParallelFor, ExceptionIsFirstComeWinsWhenSerial) {
  // A zero-worker pool runs in index order, so "first come" is exactly the
  // lowest failing index — the strictest observable form of the
  // first-come-wins propagation contract.
  ThreadPool serial(0);
  try {
    serial.parallel_for(0, 100, [](std::size_t i) {
      if (i >= 30) throw std::runtime_error("idx" + std::to_string(i));
    });
    FAIL() << "expected a throw";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "idx30");
  }
}

TEST(ParallelFor, SingleThreadRunsAreDeterministic) {
  ThreadPool serial(0);
  std::vector<std::size_t> first;
  std::vector<std::size_t> second;
  serial.parallel_for(0, 64, [&](std::size_t i) { first.push_back(i); });
  serial.parallel_for(0, 64, [&](std::size_t i) { second.push_back(i); });
  EXPECT_EQ(first, second);
}

TEST(ParallelFor, NestedUseRunsInlineInOrder) {
  // A body that itself enters the pool must get a serial, in-order inner
  // loop on the calling thread (the nested-use guard).
  std::atomic<int> inner_total{0};
  std::atomic<bool> inner_in_order{true};
  shared_pool().parallel_for(0, 4, [&](std::size_t) {
    std::vector<std::size_t> inner;  // unsynchronized: inline execution only
    shared_pool().parallel_for(0, 5,
                               [&](std::size_t i) { inner.push_back(i); });
    inner_total += static_cast<int>(inner.size());
    for (std::size_t i = 0; i < inner.size(); ++i)
      if (inner[i] != i) inner_in_order = false;
  });
  EXPECT_EQ(inner_total.load(), 20);
  EXPECT_TRUE(inner_in_order.load());
}

TEST(ParallelFor, NestedExceptionPropagatesThroughBothLevels) {
  EXPECT_THROW(shared_pool().parallel_for(
                   0, 4,
                   [](std::size_t) {
                     shared_pool().parallel_for(0, 4, [](std::size_t j) {
                       if (j == 2) throw std::runtime_error("inner");
                     });
                   }),
               std::runtime_error);
}

// Shutdown stress: destroy the pool immediately after the last region
// returns, while workers may still be between "observed the generation"
// and "back on the condvar". Run under TSan in CI; a lost-wakeup or a
// notify on a destroyed condvar shows up here as a hang or a race report.
TEST(ThreadPool, ImmediateDestructionAfterBusyRegionsStress) {
  for (int i = 0; i < 100; ++i) {
    ThreadPool pool(4);
    std::atomic<int> count{0};
    pool.parallel_for(0, 64, [&](std::size_t) {
      count.fetch_add(1, std::memory_order_relaxed);
    });
    pool.parallel_for(0, 1, [&](std::size_t) {
      count.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(count.load(), 65);
    // Destructor races the workers' return-to-wait transition.
  }
}

}  // namespace
}  // namespace oagrid
