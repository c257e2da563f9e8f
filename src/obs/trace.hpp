#pragma once
/// \file trace.hpp
/// \brief Bounded in-memory event buffer plus RAII Span/ScopedTimer.
///
/// TraceBuffer stores Chrome-trace-style "complete" events (name, category,
/// timestamp, duration). Two timelines coexist in one buffer, separated by
/// the Chrome `pid` field so chrome://tracing and Perfetto render them as
/// two process groups:
///  * kWallPid  — real microseconds since process start (middleware
///    threads, scheduler timing, benches);
///  * kSimPid   — simulated time, a DES run's sim::Trace exported after
///    the run with explicit timestamps (one trace "microsecond" equals one
///    simulated second, so a 10-day campaign stays readable).
///
/// The buffer is bounded: once `capacity` events are stored, further events
/// are counted in dropped() and discarded — instrumentation must never OOM
/// the process it observes. All methods are thread-safe.

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/clock.hpp"
#include "obs/metrics.hpp"

namespace oagrid::obs {

inline constexpr int kWallPid = 1;  ///< wall-clock timeline (us)
inline constexpr int kSimPid = 2;   ///< simulated timeline (1 us = 1 sim s)

struct TraceEvent {
  std::string name;
  std::string category;
  int pid = kWallPid;
  int track = 0;  ///< Chrome `tid`: thread slot (wall) or unit id (sim)
  double ts_us = 0.0;
  double dur_us = 0.0;
  int depth = 0;  ///< span nesting depth at emission (wall spans only)
};

class TraceBuffer {
 public:
  explicit TraceBuffer(std::size_t capacity = 1u << 20);
  TraceBuffer(const TraceBuffer&) = delete;
  TraceBuffer& operator=(const TraceBuffer&) = delete;

  /// Appends one complete event; silently drops (and counts) past capacity.
  void emit_complete(TraceEvent event);

  /// Human-readable label for a (pid, track) pair, exported as Chrome
  /// thread_name metadata ("SeD 2", "cluster capricorne group 0", ...).
  void set_track_name(int pid, int track, std::string name);

  [[nodiscard]] std::vector<TraceEvent> events() const;
  [[nodiscard]] std::map<std::pair<int, int>, std::string> track_names() const;
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t dropped() const;
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  void clear();

 private:
  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::vector<TraceEvent> events_;
  std::map<std::pair<int, int>, std::string> track_names_;
  std::size_t dropped_ = 0;
};

/// RAII wall-clock span: records a kWallPid complete event covering its
/// lifetime. Nesting is tracked per thread; the track is the thread's shard
/// slot so concurrent spans land on distinct Chrome rows. A null buffer (or
/// a custom clock for tests) is accepted; construction with nullptr makes
/// every operation a no-op, which is how call sites stay cheap when
/// observability is disabled.
class Span {
 public:
  Span(TraceBuffer* buffer, std::string name, std::string category = "",
       const Clock& clock = WallClock::instance());
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  TraceBuffer* buffer_;
  const Clock& clock_;
  std::string name_;
  std::string category_;
  double start_us_ = 0.0;
  int depth_ = 0;
};

/// RAII timer recording its elapsed wall microseconds into a Histogram on
/// destruction. Null histogram -> no-op.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* histogram,
                       const Clock& clock = WallClock::instance())
      : histogram_(histogram), clock_(clock) {
    if (histogram_ != nullptr) start_us_ = clock_.now_us();
  }
  ~ScopedTimer() {
    if (histogram_ != nullptr) histogram_->record(clock_.now_us() - start_us_);
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram* histogram_;
  const Clock& clock_;
  double start_us_ = 0.0;
};

}  // namespace oagrid::obs
