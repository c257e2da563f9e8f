#include "sim/post_pool.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

namespace oagrid::sim {
namespace {

/// Drives a PostPool with a fixed duration list (the k-th settled post gets
/// durations[k]) and collects what it settles.
struct Harness {
  PostPool pool;
  std::vector<Seconds> durations;
  std::size_t drawn = 0;
  std::vector<PostPool::Resolved> settled;

  void resolve(Seconds now) {
    pool.resolve(
        now, [this] { return durations.at(drawn++); },
        [this](const PostPool::Resolved& post) { settled.push_back(post); });
  }
  /// One arrival followed by the resolve the contract asks for.
  void arrive(ScenarioId s, Seconds t) {
    pool.arrive(s, 0, t);
    resolve(t);
  }
};

void expect_post(const PostPool::Resolved& post, ScenarioId scenario,
                 int worker, Seconds start, Seconds end) {
  EXPECT_EQ(post.scenario, scenario);
  EXPECT_EQ(post.worker, worker);
  EXPECT_EQ(post.start, start);
  EXPECT_EQ(post.end, end);
}

TEST(PostPool, OneWorkerServesInArrivalOrder) {
  Harness h;
  h.durations = {10.0, 10.0, 10.0};
  h.pool.join(0.0, 1);
  h.arrive(0, 0.0);  // starts at once
  h.arrive(1, 1.0);  // waits for the worker (free at 10)
  h.arrive(2, 2.0);
  ASSERT_EQ(h.settled.size(), 1u);
  EXPECT_EQ(h.pool.pending(), 2u);
  h.resolve(kInfiniteTime);
  ASSERT_EQ(h.settled.size(), 3u);
  expect_post(h.settled[0], 0, 0, 0.0, 10.0);
  expect_post(h.settled[1], 1, 0, 10.0, 20.0);
  expect_post(h.settled[2], 2, 0, 20.0, 30.0);
  EXPECT_EQ(h.pool.pending(), 0u);
}

TEST(PostPool, BurstLargerThanThePoolQueues) {
  Harness h;
  h.durations = {10.0, 10.0, 10.0, 10.0, 10.0};
  h.pool.join(0.0, 2);
  for (ScenarioId s = 0; s < 5; ++s) h.arrive(s, 5.0);
  ASSERT_EQ(h.settled.size(), 2u);
  h.resolve(kInfiniteTime);
  ASSERT_EQ(h.settled.size(), 5u);
  expect_post(h.settled[0], 0, 0, 5.0, 15.0);
  expect_post(h.settled[1], 1, 1, 5.0, 15.0);
  // Both workers free at 15: the lower id goes first.
  expect_post(h.settled[2], 2, 0, 15.0, 25.0);
  expect_post(h.settled[3], 3, 1, 15.0, 25.0);
  expect_post(h.settled[4], 4, 0, 25.0, 35.0);
}

TEST(PostPool, EarliestFreeWorkerWinsOverLowerId) {
  Harness h;
  h.durations = {30.0, 5.0, 1.0};
  h.pool.join(0.0, 2);
  h.arrive(0, 0.0);  // worker 0 until 30
  h.arrive(1, 0.0);  // worker 1 until 5
  h.arrive(2, 8.0);  // worker 1 again: free since 5
  ASSERT_EQ(h.settled.size(), 3u);
  expect_post(h.settled[2], 2, 1, 8.0, 9.0);
}

TEST(PostPool, PostsWaitForALateJoin) {
  Harness h;
  h.durations = {4.0, 4.0, 4.0};
  h.arrive(0, 1.0);
  h.arrive(1, 2.0);
  h.arrive(2, 3.0);
  EXPECT_TRUE(h.settled.empty());
  h.pool.join(50.0, 2);  // e.g. the whole cluster at the end of the mains
  h.resolve(50.0);
  ASSERT_EQ(h.settled.size(), 2u);
  expect_post(h.settled[0], 0, 0, 50.0, 54.0);
  expect_post(h.settled[1], 1, 1, 50.0, 54.0);
  h.resolve(kInfiniteTime);
  ASSERT_EQ(h.settled.size(), 3u);
  expect_post(h.settled[2], 2, 0, 54.0, 58.0);
}

TEST(PostPool, ResolveSettlesOnlyWhatStartsByNow) {
  Harness h;
  h.durations = {10.0, 10.0};
  h.pool.join(0.0, 1);
  h.arrive(0, 0.0);
  h.arrive(1, 1.0);
  h.resolve(9.5);
  EXPECT_EQ(h.settled.size(), 1u);
  // A worker that joins now cannot have served the waiting post earlier,
  // and the post now starts on it.
  h.pool.join(9.5, 1);
  h.resolve(9.5);
  ASSERT_EQ(h.settled.size(), 2u);
  expect_post(h.settled[1], 1, 1, 9.5, 19.5);
}

TEST(PostPool, WaitingPostStartsWhenItsWorkerFreesNotAtTheNextCall) {
  Harness h;
  h.durations = {10.0, 10.0};
  h.pool.join(0.0, 1);
  h.arrive(0, 0.0);
  h.arrive(1, 3.0);
  h.resolve(25.0);  // the first call after the worker freed at 10
  ASSERT_EQ(h.settled.size(), 2u);
  expect_post(h.settled[1], 1, 0, 10.0, 20.0);
}

TEST(PostPool, DurationsAreDrawnInArrivalOrder) {
  Harness h;
  h.durations = {3.0, 7.0, 11.0};
  h.pool.join(0.0, 3);
  h.arrive(0, 0.0);
  h.arrive(1, 0.0);
  h.arrive(2, 0.0);
  ASSERT_EQ(h.settled.size(), 3u);
  expect_post(h.settled[0], 0, 0, 0.0, 3.0);
  expect_post(h.settled[1], 1, 1, 0.0, 7.0);
  expect_post(h.settled[2], 2, 2, 0.0, 11.0);
}

TEST(PostPool, NoWorkerMeansThePostStaysPending) {
  Harness h;
  h.arrive(0, 1.0);
  h.resolve(kInfiniteTime);
  EXPECT_TRUE(h.settled.empty());
  EXPECT_EQ(h.pool.pending(), 1u);
  EXPECT_EQ(h.drawn, 0u);
}

TEST(PostPool, ArrivalWithoutItsResolveIsRejected) {
  PostPool pool;
  pool.arrive(0, 0, 1.0);  // no worker: stays pending, never checked
  EXPECT_THROW(pool.arrive(1, 0, 2.0), std::invalid_argument);
}

}  // namespace
}  // namespace oagrid::sim
