#pragma once
/// \file post_pool.hpp
/// \brief The post-processing pool, resolved off the event calendar as a FIFO
/// multi-server queue.
///
/// Posts are sinks of the paper's task graph (Figure 2): a post consumes
/// only its main's output, and no main ever waits for a post. So the
/// simulator keeps posts off its calendar and resolves them here. Posts are
/// served in arrival order; a post starts at max(its arrival, the earliest
/// free worker) and ends at start + duration. Workers join at times the
/// simulator reaches in order: the dedicated pool at 0, a retired group's
/// processors at its retirement, the whole cluster at the end of the main
/// phase. The earliest free worker, the lowest id on ties, takes the next
/// post; ids follow join order.
///
/// Every worker that joined is kept by (free time, id) in two parts: a
/// sorted run that takes a key at its back when no key there is later, and
/// a min-heap for the keys that come out of order. Posts are served in arrival order,
/// so a worker's next free time is usually the latest: with equal post
/// durations every key goes to the run, and taking and refiling a worker
/// costs O(1). Jittered durations or a join behind busy workers send keys
/// to the heap, which bounds every step by O(log workers).
///
/// Finality: resolve(now) settles, in arrival order, the pending posts that
/// start at or before `now`, and stops at the first one that does not. A
/// worker that joins later joins at or after `now` with a higher id, so it
/// changes neither the start nor the worker of a settled post: every answer
/// equals the one an event-driven pool gives at that time, computed with
/// the same addition. Once no worker will join any more,
/// resolve(kInfiniteTime) settles the rest. A post that never gets a worker
/// stays pending.
///
/// Only the newest arrival keeps its time. The caller calls resolve(t)
/// after each arrival at t, before anything happens later (arrive() checks
/// it). A post still pending after that call found no worker free at t,
/// and every worker it can get later frees or joins at or after t, so it
/// starts exactly when its worker frees. The queue then costs what the
/// event-driven pool's did: one (scenario, month) per waiting post.

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/types.hpp"

namespace oagrid::sim {

class PostPool {
 public:
  /// One settled post.
  struct Resolved {
    ScenarioId scenario = 0;
    MonthIndex month = 0;
    int worker = 0;
    Seconds start = 0.0;
    Seconds end = 0.0;
  };

  /// Preallocates for the most workers that will ever join.
  void reserve(std::size_t workers) {
    run_.reserve(2 * workers);
    heap_.reserve(workers);
  }

  /// `count` workers join the pool, free from `t` (>= 0, non-decreasing).
  void join(Seconds t, ProcCount count) {
    for (ProcCount w = 0; w < count; ++w) file(key(t, next_id_++));
  }

  /// The post of (scenario, month) arrives at `t` (non-decreasing).
  void arrive(ScenarioId scenario, MonthIndex month, Seconds t) {
    OAGRID_REQUIRE(pending() == 0 || newest_checked_,
                   "resolve(t) must follow each post arrival at t");
    queue_.push_back(Tag{scenario, month});
    newest_arrival_ = t;
    newest_checked_ = false;
  }

  /// Settles pending posts in arrival order while the next one starts at or
  /// before `now` (>= every arrival and join so far). Each settled post
  /// runs for `duration()`, drawn in arrival order, and is handed to
  /// `on_resolved(const Resolved&)`.
  template <typename Duration, typename OnResolved>
  void resolve(Seconds now, Duration&& duration, OnResolved&& on_resolved) {
    while (head_ < queue_.size() && (run_head_ < run_.size() || !heap_.empty())) {
      const bool in_run = first_in_run();
      const Key top = in_run ? run_[run_head_] : heap_.front();
      const auto free = std::bit_cast<Seconds>(static_cast<std::uint64_t>(top >> 64));
      const Seconds start =
          head_ + 1 == queue_.size() ? std::max(newest_arrival_, free) : free;
      if (start > now) break;
      const Seconds end = start + duration();
      const auto worker = static_cast<int>(static_cast<std::uint32_t>(top));
      refile_first(in_run, key(end, worker));
      const Tag tag = queue_[head_++];
      on_resolved(Resolved{tag.scenario, tag.month, worker, start, end});
    }
    newest_checked_ = true;
    // Drop the settled prefix once it is half the buffer: each post is moved
    // at most once per halving, so the queue costs O(1) amortized per post.
    if (2 * head_ >= queue_.size()) {
      queue_.erase(queue_.begin(),
                   queue_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
  }

  /// Posts that arrived and are not settled yet.
  [[nodiscard]] std::size_t pending() const noexcept {
    return queue_.size() - head_;
  }

 private:
  struct Tag {
    ScenarioId scenario;
    MonthIndex month;
  };

  /// (free time, id) packed as (time bits << 64 | id). Free times are never
  /// negative, so their IEEE-754 bit patterns order like the values and one
  /// branch-free integer comparison orders workers.
  __extension__ typedef unsigned __int128 Key;

  [[nodiscard]] static Key key(Seconds t, int id) noexcept {
    return static_cast<Key>(std::bit_cast<std::uint64_t>(t)) << 64 |
           static_cast<std::uint32_t>(id);
  }

  /// True when the earliest free worker heads the run, not the heap.
  /// Precondition: a worker has joined.
  [[nodiscard]] bool first_in_run() const noexcept {
    return heap_.empty() ||
           (run_head_ < run_.size() && run_[run_head_] < heap_.front());
  }

  /// Takes the earliest free worker, which first_in_run() located, and
  /// files `k`, its next free time, in its place.
  void refile_first(bool in_run, Key k) {
    if (in_run) {
      ++run_head_;
      file(k);
    } else if (run_head_ < run_.size() && k < run_.back()) {
      replace_top(k);  // out of order again: one walk of the heap
    } else {
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
      heap_.pop_back();
      file(k);
    }
  }

  /// Replaces the heap's root with `k`: the hole walks down the smaller
  /// children to a leaf, then `k` rises from there.
  void replace_top(Key k) noexcept {
    const std::size_t n = heap_.size();
    std::size_t i = 0;
    for (std::size_t c = 1; c < n; c = 2 * i + 1) {
      if (c + 1 < n && heap_[c + 1] < heap_[c]) ++c;
      heap_[i] = heap_[c];
      i = c;
    }
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!(k < heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = k;
  }

  /// Files a worker's free-time key: at the back of the run when no key
  /// there is later, else into the heap.
  void file(Key k) {
    if (run_head_ == run_.size()) {
      run_.clear();
      run_head_ = 0;
    } else if (k < run_.back()) {
      heap_.push_back(k);
      std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
      return;
    } else if (2 * run_head_ >= run_.size()) {
      // Drop the taken prefix once it is half the buffer: O(1) amortized.
      run_.erase(run_.begin(),
                 run_.begin() + static_cast<std::ptrdiff_t>(run_head_));
      run_head_ = 0;
    }
    run_.push_back(k);
  }

  std::vector<Key> run_;  ///< sorted; [run_head_, size) hold workers
  std::size_t run_head_ = 0;
  std::vector<Key> heap_;  ///< min-heap of the keys that came out of order
  std::vector<Tag> queue_;  ///< arrivals; [head_, size) are pending
  std::size_t head_ = 0;
  Seconds newest_arrival_ = 0.0;
  bool newest_checked_ = true;
  int next_id_ = 0;
};

}  // namespace oagrid::sim
