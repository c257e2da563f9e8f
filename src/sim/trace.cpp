#include "sim/trace.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <ostream>
#include <sstream>

namespace oagrid::sim {

const char* to_string(Outcome outcome) noexcept {
  switch (outcome) {
    case Outcome::kDone: return "done";
    case Outcome::kRetry: return "retry";
    case Outcome::kKilled: return "killed";
    case Outcome::kRewound: return "rewound";
  }
  return "?";
}

std::string Trace::verify() const {
  // Per-unit overlap check, over every outcome: a killed or retried main
  // occupied its group as much as a completed one.
  std::map<std::pair<UnitKind, int>, std::vector<const TraceEntry*>> by_unit;
  for (const auto& e : entries_) {
    if (e.end < e.start) return "entry with end < start";
    by_unit[{e.unit_kind, e.unit}].push_back(&e);
  }
  for (auto& [unit, list] : by_unit) {
    std::sort(list.begin(), list.end(),
              [](const TraceEntry* a, const TraceEntry* b) {
                return a->start < b->start;
              });
    for (std::size_t i = 1; i < list.size(); ++i)
      if (list[i]->start < list[i - 1]->end - 1e-9) {
        std::ostringstream msg;
        msg << "overlap on " << (unit.first == UnitKind::kGroup ? 'G' : 'P')
            << unit.second << " at t=" << list[i]->start;
        return msg.str();
      }
  }

  // Done mains: each month once, months in order. Posts pair up with the
  // mains that produced output (done or later rewound), in time order.
  std::map<ScenarioId, std::map<MonthIndex, const TraceEntry*>> done;
  std::map<std::pair<ScenarioId, MonthIndex>, std::vector<Seconds>> main_ends,
      post_starts;
  for (const auto& e : entries_) {
    const std::pair<ScenarioId, MonthIndex> key{e.scenario, e.month};
    if (e.unit_kind == UnitKind::kPostWorker) {
      post_starts[key].push_back(e.start);
      continue;
    }
    if (e.outcome == Outcome::kDone &&
        !done[e.scenario].emplace(e.month, &e).second)
      return "duplicate execution of scenario " + std::to_string(e.scenario) +
             " month " + std::to_string(e.month);
    if (e.outcome == Outcome::kDone || e.outcome == Outcome::kRewound)
      main_ends[key].push_back(e.end);
  }
  for (const auto& [scenario, months] : done) {
    const TraceEntry* prev = nullptr;
    for (const auto& [month, entry] : months) {
      if (prev && entry->start < prev->end - 1e-9)
        return "scenario " + std::to_string(scenario) + " month " +
               std::to_string(month) + " started before its predecessor ended";
      prev = entry;
    }
  }
  for (auto& [key, starts] : post_starts) {
    const auto ends = main_ends.find(key);
    if (ends == main_ends.end() || ends->second.size() < starts.size())
      return "post without its main";
    std::sort(starts.begin(), starts.end());
    std::sort(ends->second.begin(), ends->second.end());
    for (std::size_t k = 0; k < starts.size(); ++k)
      if (starts[k] < ends->second[k] - 1e-9)
        return "post of scenario " + std::to_string(key.first) + " month " +
               std::to_string(key.second) + " started before its main ended";
  }
  return {};
}

void Trace::write_csv(std::ostream& os) const {
  os << "unit_kind,unit,scenario,month,start,end,outcome\n";
  for (const auto& e : entries_)
    os << (e.unit_kind == UnitKind::kGroup ? "group" : "post") << ',' << e.unit
       << ',' << e.scenario << ',' << e.month << ',' << e.start << ',' << e.end
       << ',' << to_string(e.outcome) << '\n';
}

std::string Trace::render_gantt(int width) const {
  if (entries_.empty()) return "(empty trace)\n";
  width = std::max(width, 10);

  Seconds horizon = 0.0;
  for (const auto& e : entries_)
    if (e.outcome == Outcome::kDone) horizon = std::max(horizon, e.end);
  if (horizon <= 0.0) horizon = 1.0;

  // Stable unit ordering: groups first, then post workers.
  std::map<std::pair<int, int>, std::string> rows;  // (kind rank, unit) -> row
  for (const auto& e : entries_) {
    if (e.outcome != Outcome::kDone) continue;
    std::string& row =
        rows.try_emplace({e.unit_kind == UnitKind::kGroup ? 0 : 1, e.unit},
                         static_cast<std::size_t>(width), '.')
            .first->second;
    auto col = [&](Seconds t) {
      return std::clamp<int>(
          static_cast<int>(std::floor(t / horizon * width)), 0, width - 1);
    };
    const int c0 = col(e.start);
    const int c1 = std::max(c0, col(e.end - 1e-9));
    const char digit = "0123456789abcdef"[e.scenario % 16];
    const char glyph = e.unit_kind == UnitKind::kGroup
                           ? static_cast<char>(std::toupper(digit))
                           : digit;
    for (int c = c0; c <= c1; ++c) row[static_cast<std::size_t>(c)] = glyph;
  }

  std::ostringstream out;
  out << "time 0 .. " << horizon << " s (one column ~ " << horizon / width
      << " s); rows: G = main-task group, P = post worker; glyph = scenario\n";
  for (const auto& [key, row] : rows) {
    out << (key.first == 0 ? 'G' : 'P') << key.second << '\t' << row << '\n';
  }
  return out.str();
}

}  // namespace oagrid::sim
