/// \file e2e_main.cpp
/// \brief End-to-end benchmark driver: one workload per process.
///
///   oagrid_e2e --workload fig9-cold --seed 1 --seconds 15 --trace 0
///
/// A single client thread runs a closed loop: the next op starts only after
/// the previous one and its correctness check finished. Checks run outside
/// the timed region; a failed check counts the op as failed and never stops
/// the run. The last line of stdout is one JSON object:
///   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
/// with the end-to-end metrics (--trace 0) or the per-layer metrics
/// (--trace 1). Per-layer numbers come from a separate traced run in which
/// each op runs three times from the same state: untraced through the entry
/// point, traced through the entry point (obs on), and as a serial replay
/// through the layer functions with one obs::Span per call.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <stdexcept>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/argparse.hpp"
#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "obs/obs.hpp"
#include "sim/eval_cache.hpp"
#include "workload.hpp"

namespace oagrid::e2e {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// User + system CPU of the whole process (every thread), in ms.
double process_cpu_ms() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) * 1e-3;
  };
  return ms(usage.ru_utime) + ms(usage.ru_stime);
}

/// High-water resident set of this program image. VmHWM, unlike getrusage's
/// ru_maxrss, does not carry over the peak of the parent that forked the
/// process before exec.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

double median(std::vector<double> xs) {
  return xs.empty() ? 0.0 : percentile_of(std::move(xs), 50.0);
}

double ratio(double num, double den, double if_empty = 0.0) {
  return den > 0.0 ? num / den : if_empty;
}

/// Timing of one run's ops.
struct TimingStats {
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  double ops_per_s = 0.0;
  double cpu_ms_per_op = 0.0;
};

/// Neighbours on a shared VM slow stretches of seconds to minutes of a run,
/// every op in them by up to 40%. So the ops are cut into ten consecutive
/// blocks (fewer ops than blocks: one block), and
/// - p50, ops/s and CPU per op come from the quiet half: the ops of the five
///   blocks with the lowest median, pooled. A stretch covering less than
///   half the run drops out; a slowdown of the program on most ops stays.
/// - p90 is that p50 times the 90th percentile, over every op of the run, of
///   the op's time over its own block's median. Every op and every stall
///   counts, while the host's speed in each block cancels.
TimingStats timing_stats(const std::vector<double>& op_ms,
                         const std::vector<double>& cpu_ms) {
  constexpr std::size_t kBlocks = 10;
  const std::size_t blocks = op_ms.size() < kBlocks ? 1 : kBlocks;
  const std::size_t size = op_ms.size() / blocks;
  struct Block {
    std::size_t from;
    std::size_t to;
    double median_ms;
  };
  std::vector<Block> parts;
  std::vector<double> relative;  // op time over its block's median
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::size_t from = b * size;
    const std::size_t to = b + 1 == blocks ? op_ms.size() : from + size;
    const double block_median = median(
        std::vector<double>(op_ms.begin() + static_cast<std::ptrdiff_t>(from),
                            op_ms.begin() + static_cast<std::ptrdiff_t>(to)));
    parts.push_back({from, to, block_median});
    for (std::size_t i = from; i < to; ++i)
      relative.push_back(ratio(op_ms[i], block_median, 1.0));
  }
  std::sort(parts.begin(), parts.end(), [](const Block& a, const Block& b) {
    return a.median_ms < b.median_ms;
  });
  std::vector<double> quiet_ms;
  double wall_ms = 0.0;
  double quiet_cpu_ms = 0.0;
  for (std::size_t b = 0; b < (blocks + 1) / 2; ++b) {
    for (std::size_t i = parts[b].from; i < parts[b].to; ++i) {
      quiet_ms.push_back(op_ms[i]);
      wall_ms += op_ms[i];
      quiet_cpu_ms += cpu_ms[i];
    }
  }
  const double p50 = median(quiet_ms);
  const auto n = static_cast<double>(quiet_ms.size());
  return {p50, p50 * percentile_of(relative, 90.0), ratio(n, wall_ms * 1e-3),
          ratio(quiet_cpu_ms, n)};
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 15.0;
  bool trace = false;
  std::size_t max_ops = 0;  ///< 0 = no cap
  int min_setup_reps = 5;
  double min_setup_seconds = 1.0;
  double warmup_seconds = 2.0;
  std::string trace_out;
};

struct Outcome {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<Metric> metrics;
};

/// Runs `body` and returns its error text ("" on success); exceptions count
/// as errors, so one bad op never aborts the run.
template <typename Body>
std::string guarded(Body&& body) {
  try {
    return body();
  } catch (const std::exception& e) {
    return std::string("exception: ") + e.what();
  }
}

void note_failure(std::size_t op, const std::string& what) {
  std::cerr << "op " << op << " failed: " << what << "\n";
}

/// Runs untimed ops for `warmup_seconds` (on an idle VM the first second of
/// an op stream runs up to twice as slow), then sets the workload up from
/// scratch and returns the median set-up wall time. A set-up builds the
/// input stream, warms what a user would have warm and runs the first op
/// through the entry point. Resetting the op's state (a cache clear, a fresh
/// journal directory) and its check stay untimed, as for every op. Set-ups
/// repeat at least `min_setup_reps` times and until they took
/// `min_setup_seconds` in all: five 60 ms set-ups too often fell within one
/// slow stretch of the host. The last set-up restarts the input stream, so
/// the measured ops depend on the seed only.
double timed_setup(Workload& workload, const RunOptions& options) {
  if (options.warmup_seconds > 0.0) {
    workload.setup(options.seed);
    const auto start = Clock::now();
    while (seconds_since(start) < options.warmup_seconds) {
      workload.next_input();
      workload.reset_state();
      workload.run_entry();
    }
  }
  constexpr int kMaxSetupReps = 25;
  std::vector<double> setups;
  double total = 0.0;
  for (int rep = 0; rep < options.min_setup_reps ||
                    (total < options.min_setup_seconds && rep < kMaxSetupReps);
       ++rep) {
    const auto start = Clock::now();
    workload.setup(options.seed);
    workload.next_input();
    double seconds = seconds_since(start);
    workload.reset_state();
    const auto op_start = Clock::now();
    workload.run_entry();
    setups.push_back(seconds + seconds_since(op_start));
    total += setups.back();
    const std::string error = workload.check();
    if (!error.empty()) throw std::runtime_error("set-up op failed: " + error);
  }
  return median(std::move(setups));
}

bool keep_going(Clock::time_point phase_start, std::size_t done,
                const RunOptions& options) {
  if (options.max_ops > 0 && done >= options.max_ops) return false;
  return seconds_since(phase_start) < options.seconds;
}

Outcome run_untraced(Workload& workload, const RunOptions& options) {
  Outcome out;
  const double setup_s = timed_setup(workload, options);
  std::vector<double> op_ms;
  std::vector<double> cpu_ms;
  const auto phase_start = Clock::now();
  while (keep_going(phase_start, out.attempted, options)) {
    workload.next_input();
    workload.reset_state();
    const double cpu0 = process_cpu_ms();
    const auto start = Clock::now();
    std::string error = guarded([&] {
      workload.run_entry();
      return std::string();
    });
    op_ms.push_back(seconds_since(start) * 1e3);
    cpu_ms.push_back(process_cpu_ms() - cpu0);
    if (error.empty()) error = guarded([&] { return workload.check(); });
    if (!error.empty()) {
      note_failure(out.attempted, error);
      ++out.failed;
    }
    ++out.attempted;
  }
  const TimingStats timing = timing_stats(op_ms, cpu_ms);
  out.metrics = {
      {"setup_s", setup_s, "s"},
      {"ops_per_s", timing.ops_per_s, "1/s"},
      {"op_ms_p50", timing.p50_ms, "ms"},
      {"op_ms_p90", timing.p90_ms, "ms"},
      {"cpu_ms_per_op", timing.cpu_ms_per_op, "ms"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
  return out;
}

/// Span names whose self time is reported as its own share of the replay.
const std::vector<std::pair<std::string, std::string>> kFunctionShares = {
    {"sim.perf_vector.pct", "sim.perf_vector"},
    {"sim.des.pct", "sim.des"},
    {"sched.repartition.pct", "sched.repartition"},
    {"sched.make_schedule.pct", "sched.make_schedule"},
    {"service.estimate.pct", "service.estimate"},
    {"service.loop.pct", "service.run"},
    {"service.recover.pct", "service.recover"},
};

const std::vector<std::string> kModules = {"knapsack", "sched", "sim",
                                           "fault",    "net",   "service"};

/// Ops whose spans go to --trace-out, one Chrome track per op; the rest are
/// only summed, which keeps the file a few MB on every workload.
constexpr int kTraceFileOps = 8;

/// Self time summed over the traced ops: per span name and per module (the
/// span's category), in microseconds.
struct Attribution {
  std::map<std::string, double> by_name;
  std::map<std::string, double> by_module;
  std::map<std::string, double> root_total;

  [[nodiscard]] static double get(const std::map<std::string, double>& map,
                                  const std::string& key) {
    const auto it = map.find(key);
    return it == map.end() ? 0.0 : it->second;
  }

  /// Adds one op's events. They are serial and strictly nested, so in start
  /// order an event's parent is the nearest open event one level up, and its
  /// self time is its duration minus its direct children's.
  void add(std::vector<obs::TraceEvent> events) {
    std::stable_sort(events.begin(), events.end(),
                     [](const obs::TraceEvent& a, const obs::TraceEvent& b) {
                       return a.ts_us != b.ts_us ? a.ts_us < b.ts_us
                                                 : a.depth < b.depth;
                     });
    std::vector<double> self(events.size());
    std::vector<std::size_t> open;
    for (std::size_t i = 0; i < events.size(); ++i) {
      while (!open.empty() && events[open.back()].depth >= events[i].depth)
        open.pop_back();
      self[i] = events[i].dur_us;
      if (open.empty())
        root_total[events[i].name] += events[i].dur_us;
      else
        self[open.back()] -= events[i].dur_us;
      open.push_back(i);
    }
    for (std::size_t i = 0; i < events.size(); ++i) {
      by_name[events[i].name] += self[i];
      by_module[events[i].category] += self[i];
    }
  }
};

Outcome run_traced(Workload& workload, const RunOptions& options) {
  Outcome out;
  (void)timed_setup(workload, options);
  obs::set_enabled(false);
  obs::TraceBuffer trace;       // the current op's spans
  obs::TraceBuffer trace_file;  // the first kTraceFileOps ops' spans
  Attribution attribution;
  Counts counts;
  std::vector<double> untraced_ms;
  std::vector<double> traced_ms;
  double step1_3_us = 0.0;
  double step5_6_us = 0.0;
  // Untraced entry: its time is the base of trace.overhead_pct.
  const auto untraced = [&] {
    workload.reset_state();
    const auto start = Clock::now();
    std::string error = guarded([&] {
      workload.run_entry();
      return std::string();
    });
    untraced_ms.push_back(seconds_since(start) * 1e3);
    return error.empty() ? guarded([&] { return workload.check(); }) : error;
  };
  // Traced entry: obs on, layer counters read right after.
  const auto traced = [&] {
    workload.reset_state();
    obs::reset();
    obs::set_enabled(true);
    const sim::EvalCacheStats before = sim::eval_cache().stats();
    const auto start = Clock::now();
    std::string error = guarded([&] {
      obs::Span span(&trace, "op.entry", "op");
      workload.run_entry();
      return std::string();
    });
    traced_ms.push_back(seconds_since(start) * 1e3);
    obs::set_enabled(false);
    const sim::EvalCacheStats after = sim::eval_cache().stats();
    counts["sim.eval_cache.hits"] += static_cast<double>(after.hits - before.hits);
    counts["sim.eval_cache.misses"] +=
        static_cast<double>(after.misses - before.misses);
    for (const auto& [metric, counter] :
         {std::pair{"knapsack.dp_cells", "sched.knapsack.dp_cells"},
          std::pair{"sched.repartition.heap_pops",
                    "sched.repartition.heap_pops"},
          std::pair{"sim.des.events", "sim.events"},
          std::pair{"net.transfers.count", "net.transfers"}})
      counts[metric] +=
          static_cast<double>(obs::metrics().counter(counter).value());
    step1_3_us += obs::metrics().histogram("middleware.step1_3_us").snapshot().sum;
    step5_6_us += obs::metrics().histogram("middleware.step5_6_us").snapshot().sum;
    return error.empty() ? guarded([&] {
      workload.entry_counts(counts);
      return workload.check();
    })
                         : error;
  };

  const auto phase_start = Clock::now();
  while (keep_going(phase_start, out.attempted, options)) {
    const std::size_t op = out.attempted++;
    workload.next_input();
    // Alternate which entry run goes first, so neither always follows the
    // previous op's replay.
    std::string error = op % 2 == 0 ? untraced() : traced();
    const std::string second = op % 2 == 0 ? traced() : untraced();
    if (error.empty()) error = second;
    if (error.empty()) {
      workload.reset_state();
      error = guarded([&] { return workload.replay(trace, counts); });
    }
    if (!error.empty()) {
      note_failure(op, error);
      ++out.failed;
    }
    std::vector<obs::TraceEvent> events = trace.events();
    trace.clear();
    if (op < kTraceFileOps) {
      const auto track = static_cast<int>(op);
      trace_file.set_track_name(obs::kWallPid, track,
                                "op " + std::to_string(op));
      for (obs::TraceEvent event : events) {
        event.track = track;
        trace_file.emit_complete(std::move(event));
      }
    }
    attribution.add(std::move(events));
  }
  workload.reset_state();

  const auto self_us = [&](const std::string& name) {
    return Attribution::get(attribution.by_name, name);
  };
  const double replay_us =
      Attribution::get(attribution.root_total, "op.replay");
  const double entry_us = Attribution::get(attribution.root_total, "op.entry");
  const auto ops = static_cast<double>(out.attempted);
  const auto per_op = [&](const std::string& name) {
    return counts[name] / ops;
  };
  const auto pct_of_replay = [&](double us) {
    return 100.0 * ratio(us, replay_us);
  };

  for (const std::string& module : kModules)
    out.metrics.push_back(
        {module + ".self_pct",
         pct_of_replay(Attribution::get(attribution.by_module, module)), "%"});
  for (const auto& [metric, span] : kFunctionShares)
    out.metrics.push_back({metric, pct_of_replay(self_us(span)), "%"});
  double des_us = 0.0;
  for (const char* span : {"sim.perf_vector", "sim.des", "fault.des"})
    des_us += self_us(span);
  const double hits = counts["sim.eval_cache.hits"];
  const double misses = counts["sim.eval_cache.misses"];
  const double untraced_p50 = median(untraced_ms);
  const std::vector<Metric> rest = {
      {"trace.entry_ms_per_op", ratio(entry_us * 1e-3, ops), "ms"},
      {"trace.replay_ms_per_op", ratio(replay_us * 1e-3, ops), "ms"},
      {"replay.glue_ratio", ratio(self_us("op.replay"), replay_us), "1"},
      {"entry.speedup_vs_replay", ratio(replay_us, entry_us), "x"},
      {"trace.overhead_pct",
       100.0 * ratio(median(traced_ms) - untraced_p50, untraced_p50), "%"},
      {"middleware.step1_3.pct", 100.0 * ratio(step1_3_us, entry_us), "%"},
      {"middleware.step5_6.pct", 100.0 * ratio(step5_6_us, entry_us), "%"},
      {"knapsack.dp_cells", per_op("knapsack.dp_cells"), "count"},
      {"sched.repartition.heap_pops", per_op("sched.repartition.heap_pops"),
       "count"},
      {"sim.eval_cache.hit_ratio", ratio(hits, hits + misses), "1"},
      {"sim.eval_cache.misses", per_op("sim.eval_cache.misses"), "count"},
      {"sim.des.events", per_op("sim.des.events"), "count"},
      {"sim.des.events_per_ms", ratio(counts["sim.des.events"], des_us * 1e-3),
       "1/ms"},
      {"fault.kills", per_op("fault.kills"), "count"},
      {"fault.rewound_months", per_op("fault.rewound_months"), "count"},
      {"fault.useful_ratio",
       ratio(counts["fault.useful_months"], counts["fault.attempted_months"],
             1.0),
       "1"},
      {"net.transfers.count", per_op("net.transfers.count"), "count"},
      {"net.transfers.mb", per_op("net.transfers.mb"), "MB"},
      {"service.estimate.calls", per_op("service.estimate.calls"), "count"},
      {"service.journal.records", per_op("service.journal.records"), "count"},
      {"service.journal.flushes", per_op("service.journal.flushes"), "count"},
      {"service.journal.records_per_flush",
       ratio(counts["service.journal.records"],
             counts["service.journal.flushes"]),
       "count"},
      {"service.lease_changes", per_op("service.lease_changes"), "count"},
      {"service.plan_reuse", per_op("service.plan_reuse"), "count"},
      {"common.pool.threads",
       static_cast<double>(shared_pool().worker_count() + 1), "count"},
  };
  out.metrics.insert(out.metrics.end(), rest.begin(), rest.end());
  if (!options.trace_out.empty()) {
    std::ofstream file(options.trace_out);
    if (!file) throw std::runtime_error("cannot write " + options.trace_out);
    obs::write_chrome_trace(file, trace_file);
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_result(const Outcome& out) {
  std::ostringstream json;
  json << "{\"correct\": "
       << (out.failed == 0 && out.attempted > 0 ? "true" : "false")
       << ", \"attempted\": " << out.attempted << ", \"failed\": " << out.failed
       << ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    json << (i == 0 ? "" : ", ") << "\"" << m.name
         << "\": {\"value\": " << json_number(m.value) << ", \"unit\": \""
         << m.unit << "\"}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
}

}  // namespace
}  // namespace oagrid::e2e

int main(int argc, char** argv) {
  using namespace oagrid;
  ArgParser args("oagrid_e2e", "End-to-end benchmark: one workload per run");
  args.add_option("workload",
                  "fig9-cold | grid-faults | serve-journal | sweep-fig8", "")
      .add_option("seed", "input seed", "1")
      .add_option("seconds", "length of the measured phase", "15")
      .add_option("trace", "1 = traced run reporting per-layer metrics", "0")
      .add_option("workdir", "scratch directory for journals", "e2e-work")
      .add_option("trace-out", "Chrome-trace JSON of the spans (--trace 1)", "")
      .add_flag("smoke", "two ops after a single set-up, no warm-up");
  try {
    args.parse(argc, argv);
    e2e::RunOptions options;
    options.workload = args.get("workload");
    options.seed = static_cast<std::uint64_t>(args.get_int("seed"));
    options.seconds = args.get_double("seconds");
    options.trace = args.get_int("trace") != 0;
    options.trace_out = args.get("trace-out");
    if (args.flag("smoke")) {
      options.max_ops = 2;
      options.min_setup_reps = 1;
      options.min_setup_seconds = 0.0;
      options.warmup_seconds = 0.0;
    }
    const auto workload =
        e2e::make_workload(options.workload, args.get("workdir"));
    const e2e::Outcome out = options.trace ? e2e::run_traced(*workload, options)
                                           : e2e::run_untraced(*workload, options);
    e2e::print_result(out);
    return out.failed == 0 && out.attempted > 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "oagrid_e2e: " << e.what() << "\n";
    return 2;
  }
}
