#pragma once
/// \file calendar.hpp
/// \brief Flat, preallocated event calendar for plain-struct event payloads
/// — the event core of the discrete-event simulator.
///
/// Calendar<Payload> stores payloads by value in a binary heap over one
/// contiguous, reusable buffer: scheduling is a push + sift-up, popping a
/// swap + sift-down, and a whole simulation allocates O(max concurrent
/// events) — reserve() once, then the hot loop is allocation-free. Plain
/// payloads instead of type-erased callbacks keep it that way: a capturing
/// std::function heap-allocates once the capture outgrows its small buffer.
///
/// Ordering contract: events pop in (time, insertion sequence) order, so
/// exactly-simultaneous events (synchronized group sets finishing in
/// lockstep) run in the order they were scheduled and the simulation stays
/// fully deterministic. Events may be scheduled at now() (zero delay) but
/// never in the past.

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace oagrid::sim {

template <typename Payload>
class Calendar {
 public:
  /// Preallocates capacity for `events` concurrently pending events.
  void reserve(std::size_t events) { heap_.reserve(events); }

  /// Schedules `payload` at absolute simulated time `when` (>= now()).
  void schedule(Seconds when, Payload payload) {
    OAGRID_REQUIRE(when >= now_, "cannot schedule an event in the past");
    heap_.push_back(Entry{when, next_seq_++, std::move(payload)});
    sift_up(heap_.size() - 1);
  }

  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  [[nodiscard]] std::size_t pending() const noexcept { return heap_.size(); }

  /// Current simulated time (0 before the first pop).
  [[nodiscard]] Seconds now() const noexcept { return now_; }

  /// Removes and returns the earliest event, advancing now() to its time.
  /// Precondition: !empty().
  Payload pop() {
    Entry top = std::move(heap_.front());
    now_ = top.when;
    if (heap_.size() > 1) {
      heap_.front() = std::move(heap_.back());
      heap_.pop_back();
      sift_down(0);
    } else {
      heap_.pop_back();
    }
    return std::move(top.payload);
  }

 private:
  struct Entry {
    Seconds when;
    std::uint64_t seq;
    Payload payload;
  };

  [[nodiscard]] static bool before(const Entry& a, const Entry& b) noexcept {
    if (a.when != b.when) return a.when < b.when;
    return a.seq < b.seq;
  }

  void sift_up(std::size_t i) {
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!before(heap_[i], heap_[parent])) return;
      std::swap(heap_[i], heap_[parent]);
      i = parent;
    }
  }

  void sift_down(std::size_t i) {
    const std::size_t n = heap_.size();
    for (;;) {
      std::size_t smallest = i;
      const std::size_t left = 2 * i + 1;
      const std::size_t right = 2 * i + 2;
      if (left < n && before(heap_[left], heap_[smallest])) smallest = left;
      if (right < n && before(heap_[right], heap_[smallest])) smallest = right;
      if (smallest == i) return;
      std::swap(heap_[i], heap_[smallest]);
      i = smallest;
    }
  }

  std::vector<Entry> heap_;
  Seconds now_ = 0.0;
  std::uint64_t next_seq_ = 0;
};

}  // namespace oagrid::sim
