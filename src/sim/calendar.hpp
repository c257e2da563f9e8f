#pragma once
/// \file calendar.hpp
/// \brief Flat, preallocated event calendar for plain-struct event payloads
/// — the event core of the discrete-event simulator.
///
/// Calendar<Payload> stores payloads by value in a binary heap over one
/// contiguous, reusable buffer, so a whole simulation allocates O(max
/// concurrent events) — reserve() once, then the hot loop is
/// allocation-free. Plain payloads instead of type-erased callbacks keep it
/// that way: a capturing std::function heap-allocates once the capture
/// outgrows its small buffer.
///
/// Ordering contract: events pop in (time, insertion sequence) order, so
/// exactly-simultaneous events (synchronized group sets finishing in
/// lockstep) run in the order they were scheduled and the simulation stays
/// fully deterministic. Events may be scheduled at now() (zero delay) but
/// never in the past.
///
/// Fused pop and schedule: pop() leaves the root of the heap as a hole, and
/// the next schedule() fills it with one sift-down from the root. A DES
/// event usually schedules its successor (a main completion starts the next
/// main), so such an event costs one sift-down instead of a sift-down and a
/// sift-up. A pop() that finds the hole still open closes it first, as a
/// plain pop would have. The hole is invisible: pending(), empty() and
/// now() report what they would without it.

#include <bit>
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
    Entry entry{key(when, next_seq_++), std::move(payload)};
    if (hole_) {
      hole_ = false;
      sift_down(std::move(entry));
    } else {
      push(std::move(entry));
    }
  }

  [[nodiscard]] bool empty() const noexcept { return pending() == 0; }
  [[nodiscard]] std::size_t pending() const noexcept {
    return heap_.size() - (hole_ ? 1 : 0);
  }

  /// Current simulated time (0 before the first pop).
  [[nodiscard]] Seconds now() const noexcept { return now_; }

  /// Removes and returns the earliest event, advancing now() to its time.
  /// Precondition: !empty().
  Payload pop() {
    if (hole_) close_hole();
    hole_ = true;
    Entry& top = heap_.front();
    now_ = time_of(top.key);
    return std::move(top.payload);
  }

 private:
  /// (time, sequence) packed as one integer, time bits high: times pass the
  /// past check, so they are never negative and their IEEE-754 bits order
  /// like the values, and one integer comparison orders events. The sign
  /// bit (set only on -0.0) moves below the sequence, so -0.0 orders as 0.0
  /// and now() still returns the exact time scheduled.
  __extension__ typedef unsigned __int128 Key;

  struct Entry {
    Key key;
    Payload payload;
  };

  [[nodiscard]] static Key key(Seconds when, std::uint64_t seq) noexcept {
    const auto bits = std::bit_cast<std::uint64_t>(when);
    return static_cast<Key>(bits << 1 >> 1) << 64 |
           static_cast<Key>(seq) << 1 | bits >> 63;
  }

  [[nodiscard]] static Seconds time_of(Key key) noexcept {
    return std::bit_cast<Seconds>(static_cast<std::uint64_t>(key >> 64) |
                                  static_cast<std::uint64_t>(key) << 63);
  }

  /// Removes the hole pop() left at the root: the last entry fills it.
  void close_hole() {
    hole_ = false;
    Entry last = std::move(heap_.back());
    heap_.pop_back();
    if (!heap_.empty()) sift_down(std::move(last));
  }

  /// Puts `entry` into the hole at the root and lets it sink.
  void sift_down(Entry entry) {
    const std::size_t n = heap_.size();
    std::size_t i = 0;
    for (std::size_t c = 1; c < n; c = 2 * i + 1) {
      if (c + 1 < n && heap_[c + 1].key < heap_[c].key) ++c;
      if (!(heap_[c].key < entry.key)) break;
      heap_[i] = std::move(heap_[c]);
      i = c;
    }
    heap_[i] = std::move(entry);
  }

  /// Appends `entry` and lets it rise. Out of line: a steady-state event
  /// fills the hole instead, and this path would make schedule() too large
  /// for the simulator's loop to inline.
  [[gnu::noinline]] void push(Entry entry) {
    heap_.push_back(entry);
    std::size_t i = heap_.size() - 1;
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!(entry.key < heap_[parent].key)) break;
      heap_[i] = std::move(heap_[parent]);
      i = parent;
    }
    heap_[i] = std::move(entry);
  }

  std::vector<Entry> heap_;
  Seconds now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  bool hole_ = false;  ///< heap_.front() is the event pop() last returned
};

}  // namespace oagrid::sim
