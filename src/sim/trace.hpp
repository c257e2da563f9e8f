#pragma once
/// \file trace.hpp
/// \brief Execution traces and Gantt rendering.
///
/// The simulator's one record stream: every task execution is recorded as a
/// TraceEntry once its outcome is known. The trace is the ground truth the
/// tests check invariants on (no overlap on a unit, dependencies respected)
/// and the source of every view of a run: Gantt, CSV, SVG and the Chrome
/// slices of sim/exporters.hpp.

#include <iosfwd>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace oagrid::sim {

/// What executed.
enum class UnitKind {
  kGroup,       ///< a multiprocessor group running a main task
  kPostWorker,  ///< a single processor running a post task
};

/// How an execution ended. Posts always complete (kDone).
enum class Outcome {
  kDone,     ///< completed; for a main, the month's output exists
  kRetry,    ///< a main whose output was lost (perturbation failure)
  kKilled,   ///< a main cut short by a node outage
  kRewound,  ///< a completed main thrown away by a checkpoint rewind
};

[[nodiscard]] const char* to_string(Outcome outcome) noexcept;

struct TraceEntry {
  UnitKind unit_kind = UnitKind::kGroup;
  int unit = 0;             ///< group index or post-worker index
  ScenarioId scenario = 0;
  MonthIndex month = 0;
  Seconds start = 0.0;
  Seconds end = 0.0;
  Outcome outcome = Outcome::kDone;
};

class Trace {
 public:
  void record(TraceEntry entry) { entries_.push_back(entry); }
  /// Re-marks a recorded entry (a completed month later rewound).
  void set_outcome(std::size_t i, Outcome o) { entries_[i].outcome = o; }
  /// Preallocates for `n` entries (the simulator knows the task count).
  void reserve(std::size_t n) { entries_.reserve(n); }
  [[nodiscard]] const std::vector<TraceEntry>& entries() const noexcept {
    return entries_;
  }
  [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }
  void clear() noexcept { entries_.clear(); }

  /// Processors of each group that ran (index = group unit), set by the
  /// simulator; the Chrome export names the group tracks with it.
  std::vector<ProcCount> group_sizes;

  /// Checks structural invariants; returns an empty string when clean, else
  /// a description of the first violation:
  ///  * no two entries on the same unit overlap in time (any outcome);
  ///  * each (scenario, month) has at most one done main, and done months
  ///    execute in order (main m+1 starts after main m ends);
  ///  * the k-th post of a (scenario, month) starts after the k-th done or
  ///    rewound main of it has ended (a rewound month is posted again).
  [[nodiscard]] std::string verify() const;

  /// CSV export: unit_kind,unit,scenario,month,start,end,outcome.
  void write_csv(std::ostream& os) const;

  /// ASCII Gantt of the done mains and the posts (the views skip retried,
  /// killed and rewound mains): one row per unit, time compressed to
  /// `width` columns. Main tasks render as the scenario's hex digit, posts
  /// as lowercase.
  [[nodiscard]] std::string render_gantt(int width = 100) const;

 private:
  std::vector<TraceEntry> entries_;
};

}  // namespace oagrid::sim
