#include "testkit/invariants.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <sstream>
#include <utility>

#include "common/rng.hpp"
#include "fault/parser.hpp"
#include "knapsack/knapsack.hpp"
#include "middleware/client.hpp"
#include "middleware/local_agent.hpp"
#include "middleware/master_agent.hpp"
#include "net/parser.hpp"
#include "obs/exporters.hpp"
#include "sched/lower_bounds.hpp"
#include "sched/makespan_model.hpp"
#include "sched/repartition.hpp"
#include "service/journal.hpp"
#include "service/service.hpp"
#include "sim/calendar.hpp"
#include "sim/eval_cache.hpp"
#include "sim/exporters.hpp"
#include "sim/grid_sim.hpp"
#include "sim/post_pool.hpp"

namespace oagrid::testkit {
namespace {

namespace fs = std::filesystem;

using Verdict = std::optional<std::string>;

/// Formats a violation; returns through `out << ...` expressions.
template <typename... Parts>
Verdict fail(Parts&&... parts) {
  std::ostringstream out;
  (out << ... << parts);
  return out.str();
}

sim::GridNetworkOptions net_options_of(const Case& world) {
  sim::GridNetworkOptions options;
  if (world.network.cluster_count() > 0) {
    options.network = world.network;
    options.stage_mb_per_scenario = world.stage_mb;
    options.collect_mb_per_scenario = world.collect_mb;
  }
  return options;
}

sim::GridFaultOptions fault_options_of(const Case& world) {
  sim::GridFaultOptions options;
  if (world.failures.cluster_count() > 0) {
    options.model = world.failures;
    options.recovery = world.recovery;
    options.checkpoint_months = world.checkpoint_months;
  }
  return options;
}

// --- closed form vs discrete-event simulation ------------------------------

Verdict check_analytic_vs_des(const Case& world) {
  for (int c = 0; c < world.grid.cluster_count(); ++c) {
    const platform::Cluster& cluster = world.grid.cluster(c);
    const Seconds bound =
        sched::ensemble_lower_bounds(cluster, world.ensemble).combined();
    for (ProcCount g = cluster.min_group();
         g <= cluster.max_group() && g <= cluster.resources(); ++g) {
      const sched::MakespanEstimate analytic =
          sched::evaluate_uniform_grouping(cluster, world.ensemble, g);
      if (analytic.regime == sched::MakespanRegime::kInfeasible) continue;
      sched::GroupSchedule schedule;
      schedule.group_sizes.assign(static_cast<std::size_t>(analytic.nbmax), g);
      schedule.post_pool = analytic.r2;
      const Seconds simulated =
          sim::simulate_ensemble(cluster, schedule, world.ensemble).makespan;
      if (world.spec.divisible_tables) {
        // TP divides every T[G]: the formula is exact.
        if (std::abs(simulated - analytic.makespan) >
            1e-6 * analytic.makespan)
          return fail("cluster ", c, " G=", g, ": simulated ", simulated,
                      " != analytic ", analytic.makespan,
                      " on a divisible table (regime ",
                      to_string(analytic.regime), ")");
      } else if (simulated >
                 analytic.makespan * (1.0 + 1e-9) + 1e-6) {
        // The closed form over-approximates when TP does not divide TG;
        // it must never under-estimate the real execution.
        return fail("cluster ", c, " G=", g, ": simulated ", simulated,
                    " exceeds the analytic over-approximation ",
                    analytic.makespan);
      }
      if (simulated < bound - 1e-6)
        return fail("cluster ", c, " G=", g, ": simulated ", simulated,
                    " beats the lower bound ", bound);
    }
  }
  return std::nullopt;
}

// --- heuristics respect the absolute lower bounds ---------------------------

Verdict check_lower_bounds(const Case& world) {
  for (int c = 0; c < world.grid.cluster_count(); ++c) {
    const platform::Cluster& cluster = world.grid.cluster(c);
    const Seconds bound =
        sched::ensemble_lower_bounds(cluster, world.ensemble).combined();
    const sim::SimResult result =
        sim::simulate_with_heuristic(cluster, world.heuristic, world.ensemble);
    if (result.makespan < bound - 1e-6)
      return fail("cluster ", c, ": ", to_string(world.heuristic),
                  " makespan ", result.makespan, " beats the lower bound ",
                  bound);
    if (result.mains_executed != world.ensemble.total_tasks())
      return fail("cluster ", c, ": executed ", result.mains_executed,
                  " mains, expected ", world.ensemble.total_tasks());
  }
  const Seconds grid_bound =
      sched::grid_lower_bounds(world.grid, world.ensemble).combined();
  const sim::GridSimResult grid_result = sim::simulate_grid(
      world.grid, world.ensemble, world.heuristic, 1, net_options_of(world),
      fault_options_of(world));
  // Staging/faults only add time, so the clean bound still holds.
  if (grid_result.makespan < grid_bound - 1e-6)
    return fail("grid makespan ", grid_result.makespan,
                " beats the grid lower bound ", grid_bound);
  return std::nullopt;
}

// --- memoized evaluation is bit-identical to direct simulation --------------

Verdict check_eval_cache_identity(const Case& world) {
  for (int c = 0; c < world.grid.cluster_count(); ++c) {
    const platform::Cluster& cluster = world.grid.cluster(c);
    const sched::GroupSchedule schedule =
        sched::make_schedule(world.heuristic, cluster, world.ensemble);
    const Seconds direct =
        sim::simulate_ensemble(cluster, schedule, world.ensemble).makespan;
    const Seconds first =
        sim::cached_makespan(cluster, schedule, world.ensemble);
    const Seconds second =
        sim::cached_makespan(cluster, schedule, world.ensemble);
    if (direct != first || first != second)
      return fail("cluster ", c, ": direct ", direct, ", first cached ",
                  first, ", second cached ", second,
                  " are not bit-identical");
  }
  return std::nullopt;
}

// --- thread count never changes a result ------------------------------------

Verdict check_thread_invariance(const Case& world) {
  const sim::GridNetworkOptions net = net_options_of(world);
  const sim::GridFaultOptions faults = fault_options_of(world);
  const sim::GridSimResult serial =
      sim::simulate_grid(world.grid, world.ensemble, world.heuristic, 1, net,
                         faults);
  const sim::GridSimResult threaded =
      sim::simulate_grid(world.grid, world.ensemble, world.heuristic, 3, net,
                         faults);
  if (serial.makespan != threaded.makespan)
    return fail("grid makespan differs across thread counts: ",
                serial.makespan, " (1 thread) vs ", threaded.makespan,
                " (3 threads)");
  if (serial.cluster_makespans != threaded.cluster_makespans)
    return fail("per-cluster makespans differ across thread counts");
  if (serial.repartition.assignment != threaded.repartition.assignment)
    return fail("scenario assignment differs across thread counts");
  return std::nullopt;
}

// --- the middleware executes exactly the in-process campaign -----------------

Verdict check_middleware_vs_grid(const Case& world) {
  middleware::StagingOptions staging;
  staging.data = net_options_of(world);
  const sim::GridFaultOptions faults = fault_options_of(world);
  const sim::GridSimResult direct = sim::simulate_grid(
      world.grid, world.ensemble, world.heuristic, 1, staging.data, faults);

  // Flat fleet or agent tree, picked by the seed: the protocol is the same.
  const bool tree = (world.spec.seed & 1) != 0;
  std::unique_ptr<middleware::Deployment> deployment;
  if (tree)
    deployment = std::make_unique<middleware::HierarchicalAgent>(
        world.grid, 2 + static_cast<int>((world.spec.seed >> 1) % 2));
  else
    deployment = std::make_unique<middleware::MasterAgent>(world.grid);
  const middleware::CampaignResult remote =
      middleware::Client(*deployment)
          .submit(world.ensemble, world.heuristic, staging, faults);
  deployment.reset();

  const fault::FaultStats& a = remote.fault;
  const fault::FaultStats& b = direct.fault;
  if (remote.makespan != direct.makespan ||
      remote.cluster_makespans != direct.cluster_makespans ||
      remote.repartition.assignment != direct.repartition.assignment ||
      remote.staging_seconds != direct.staging_seconds ||
      remote.collection_seconds != direct.collection_seconds ||
      remote.transfer_mb != direct.transfer_mb || a.outages != b.outages ||
      a.kills != b.kills || a.rewound_months != b.rewound_months ||
      a.downtime_seconds != b.downtime_seconds ||
      a.lost_seconds != b.lost_seconds)
    return fail(tree ? "tree" : "flat", " middleware campaign (makespan ",
                remote.makespan, ", ", a.kills, " kills) differs from "
                "simulate_grid (makespan ", direct.makespan, ", ", b.kills,
                " kills)");
  return std::nullopt;
}

// --- fair-share transfers conserve bytes and respect physics ----------------

Verdict check_net_conservation(const Case& world) {
  const net::NetworkModel model =
      world.network.cluster_count() > 0
          ? world.network
          : net::free_network(world.grid.cluster_count());
  const std::vector<net::TransferRequest> requests =
      random_transfers(world.spec, model.cluster_count());
  const net::TransferPlan plan = net::simulate_transfers(model, requests);
  if (plan.results.size() != requests.size())
    return fail("plan has ", plan.results.size(), " results for ",
                requests.size(), " requests");
  double total_mb = 0.0;
  Seconds latest = 0.0;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const net::TransferRequest& request = requests[i];
    const Seconds finish = plan.results[i].finish;
    total_mb += request.size_mb;
    latest = std::max(latest, finish);
    // Fair sharing can only slow a transfer down relative to an
    // uncontended link.
    const Seconds floor =
        request.start +
        model.transfer_time(request.src, request.dst, request.size_mb);
    if (finish < floor - 1e-9)
      return fail("transfer ", i, " finished at ", finish,
                  ", before its uncontended floor ", floor);
    if (model.link(request.src, request.dst).is_free() &&
        finish != request.start)
      return fail("transfer ", i, " over a free link finished at ", finish,
                  " != start ", request.start);
  }
  if (std::abs(plan.total_mb - total_mb) > 1e-9 * std::max(1.0, total_mb))
    return fail("plan.total_mb ", plan.total_mb, " != injected bytes ",
                total_mb);
  if (plan.makespan != latest)
    return fail("plan.makespan ", plan.makespan, " != max finish ", latest);
  return std::nullopt;
}

// --- write -> parse round trips are exact ----------------------------------

Verdict check_parser_round_trip(const Case& world) {
  const int n = world.grid.cluster_count();
  const net::NetworkModel network = world.network.cluster_count() > 0
                                        ? world.network
                                        : net::renater_network(n);
  std::ostringstream net_out;
  net::write_network(net_out, network);
  const net::NetworkModel net_reparsed =
      net::parse_network_string(net_out.str());
  if (!(net_reparsed == network))
    return fail("network model does not round trip through its text format");
  std::ostringstream net_again;
  net::write_network(net_again, net_reparsed);
  if (net_again.str() != net_out.str())
    return fail("network writer is not a fixed point across a round trip");

  const fault::FailureModel failures =
      world.failures.cluster_count() > 0
          ? world.failures
          : fault::FailureModel::uniform_exponential(n, 86400.0, 3600.0,
                                                     world.spec.seed);
  std::ostringstream fault_out;
  fault::write_failures(fault_out, failures);
  const fault::FailureModel fault_reparsed =
      fault::parse_failures_string(fault_out.str());
  if (fault_reparsed.signature() != failures.signature())
    return fail("failure model does not round trip through its text format");
  std::ostringstream fault_again;
  fault::write_failures(fault_again, fault_reparsed);
  if (fault_again.str() != fault_out.str())
    return fail("failures writer is not a fixed point across a round trip");
  return std::nullopt;
}

// --- inactive models are bit-exact no-ops -----------------------------------

Verdict check_inactive_model_identity(const Case& world) {
  const int n = world.grid.cluster_count();
  const sim::GridSimResult bare =
      sim::simulate_grid(world.grid, world.ensemble, world.heuristic);
  sim::GridNetworkOptions free_net;
  free_net.network = net::free_network(n);
  free_net.stage_mb_per_scenario = world.stage_mb;
  free_net.collect_mb_per_scenario = world.collect_mb;
  sim::GridFaultOptions inactive_faults;
  inactive_faults.model = fault::FailureModel(n);  // clusters, no processes
  inactive_faults.recovery = world.recovery;
  inactive_faults.checkpoint_months = world.checkpoint_months;
  const sim::GridSimResult dressed = sim::simulate_grid(
      world.grid, world.ensemble, world.heuristic, 1, free_net,
      inactive_faults);
  if (bare.makespan != dressed.makespan)
    return fail("free network + inactive failures changed the makespan: ",
                bare.makespan, " vs ", dressed.makespan);
  if (bare.cluster_makespans != dressed.cluster_makespans)
    return fail("free network + inactive failures changed a cluster makespan");
  if (bare.repartition.assignment != dressed.repartition.assignment)
    return fail("free network + inactive failures changed the assignment");
  return std::nullopt;
}

// --- failure injection conserves work ----------------------------------------

/// One failure-injected run: the aggressive process below, or the case's
/// own model on one cluster.
using FaultCheck = Verdict (*)(const platform::Cluster&,
                               const appmodel::Ensemble&, const Case&,
                               const sim::FaultOptions&, bool aggressive);

const char* fault_run_label(bool aggressive) {
  return aggressive ? "aggressive exponential" : "generated model";
}

Verdict conservation_of(const platform::Cluster& cluster,
                        const appmodel::Ensemble& ensemble,
                        const Case& world, const sim::FaultOptions& fault,
                        bool aggressive) {
  const char* label = fault_run_label(aggressive);
  sim::SimOptions options;
  options.fault = fault;
  const sched::GroupSchedule schedule =
      sched::make_schedule(world.heuristic, cluster, ensemble);
  const sim::SimResult result =
      sim::simulate_ensemble(cluster, schedule, ensemble, options);
  // Every month completes exactly once in the final history; every rewound
  // month re-executes exactly once more — and each successful main execution
  // enqueues exactly one post.
  const Count expected_mains =
      ensemble.total_tasks() + result.fault.rewound_months;
  if (result.mains_executed != expected_mains)
    return fail(label, ": executed ", result.mains_executed,
                " mains, expected total_tasks + rewound = ",
                ensemble.total_tasks(), " + ", result.fault.rewound_months,
                " = ", expected_mains,
                " (a rewound month that is never re-executed is lost work)");
  if (result.posts_executed != result.mains_executed)
    return fail(label, ": ", result.posts_executed, " posts for ",
                result.mains_executed, " mains");
  if (result.retries != 0)
    return fail(label, ": ", result.retries,
                " perturbation retries in a perturbation-free run");
  return std::nullopt;
}

/// Runs `check` over the failure-injected runs until one fails.
Verdict for_each_fault_run(const Case& world, FaultCheck check) {
  // A purpose-built aggressive process on cluster 0: MTBF a couple of main
  // tasks, cadence 3, a horizon of at least 4 months — so rewinds (the
  // mutation smoke-check's target) fire within the default budget for
  // virtually every seed.
  const platform::Cluster& cluster = world.grid.cluster(0);
  const Seconds tg = cluster.main_time(cluster.min_group());
  fault::FailureModel aggressive(world.grid.cluster_count());
  aggressive.set_exponential(0, tg * 1.5, tg * 0.2);
  aggressive.set_seed(world.spec.seed | 1);
  appmodel::Ensemble stretched = world.ensemble;
  stretched.months = std::max<Count>(stretched.months, 4);
  sim::FaultOptions fault;
  fault.model = &aggressive;
  fault.cluster = 0;
  fault.recovery = fault::RecoveryPolicy::kRescheduleInCluster;
  fault.checkpoint_months = 3;
  if (Verdict verdict = check(cluster, stretched, world, fault, true))
    return verdict;

  // The case's own model, where it is active (weibull/outage coverage).
  // Permanently-down clusters are excluded: no run on them can ever finish.
  for (int c = 0; c < world.failures.cluster_count(); ++c) {
    if (!world.failures.cluster_active(c)) continue;
    if (world.failures.process(c).kind == fault::ProcessKind::kDown) continue;
    sim::FaultOptions own;
    own.model = &world.failures;
    own.cluster = c;
    own.recovery = world.recovery;
    own.checkpoint_months = world.checkpoint_months;
    if (Verdict verdict = check(world.grid.cluster(c), world.ensemble, world,
                                own, false))
      return verdict;
  }
  return std::nullopt;
}

Verdict check_fault_work_conservation(const Case& world) {
  return for_each_fault_run(world, conservation_of);
}

// --- the Chrome export of a faulty run is the verified trace -----------------

struct ChromeSlice {
  int pid = 0;
  int tid = 0;
  double ts = 0.0;
  double dur = 0.0;
};

/// Reads the "X" events back out of write_chrome_trace output by field scan:
/// the writer puts every event on its own line.
std::vector<ChromeSlice> chrome_slices(const std::string& json) {
  const auto field = [](const std::string& line, const std::string& key) {
    const std::size_t at = line.find(key);
    return at == std::string::npos
               ? std::nan("")
               : std::strtod(line.c_str() + at + key.size(), nullptr);
  };
  std::vector<ChromeSlice> slices;
  std::istringstream in(json);
  for (std::string line; std::getline(in, line);) {
    if (line.find("\"ph\":\"X\"") == std::string::npos) continue;
    slices.push_back({static_cast<int>(field(line, "\"pid\":")),
                      static_cast<int>(field(line, "\"tid\":")),
                      field(line, "\"ts\":"), field(line, "\"dur\":")});
  }
  return slices;
}

Verdict trace_export_of(const platform::Cluster& cluster,
                        const appmodel::Ensemble& ensemble, const Case& world,
                        const sim::FaultOptions& fault, bool aggressive) {
  const char* label = fault_run_label(aggressive);
  sim::SimOptions options;
  options.capture_trace = true;
  options.fault = fault;
  if (aggressive) {
    // Retries on top of kills and rewinds: every outcome on one timeline.
    options.perturbation.failure_probability = 0.1;
    options.perturbation.seed = world.spec.seed;
  }
  const sched::GroupSchedule schedule =
      sched::make_schedule(world.heuristic, cluster, ensemble);
  const sim::SimResult result =
      sim::simulate_ensemble(cluster, schedule, ensemble, options);
  const sim::Trace& trace = result.trace;
  if (const std::string issue = trace.verify(); !issue.empty())
    return fail(label, ": trace invalid: ", issue);

  std::map<sim::Outcome, Count> mains;
  Count posts = 0;
  for (const sim::TraceEntry& e : trace.entries())
    ++(e.unit_kind == sim::UnitKind::kGroup ? mains[e.outcome] : posts);
  const Count done = mains[sim::Outcome::kDone];
  const Count rewound = mains[sim::Outcome::kRewound];
  if (done + rewound != result.mains_executed ||
      mains[sim::Outcome::kRetry] != result.retries ||
      mains[sim::Outcome::kKilled] != result.fault.kills ||
      rewound != result.fault.rewound_months || posts != result.posts_executed)
    return fail(label, ": trace holds ", done, " done, ", rewound,
                " rewound, ", mains[sim::Outcome::kRetry], " retried and ",
                mains[sim::Outcome::kKilled], " killed mains and ", posts,
                " posts; the run counted ", result.mains_executed, " mains, ",
                result.fault.rewound_months, " rewound, ", result.retries,
                " retries, ", result.fault.kills, " kills, ",
                result.posts_executed, " posts");

  obs::TraceBuffer buffer;
  sim::export_sim_timeline(trace, buffer);
  std::ostringstream json;
  obs::write_chrome_trace(json, buffer);
  const std::vector<ChromeSlice> slices = chrome_slices(json.str());
  if (slices.size() != trace.entries().size())
    return fail(label, ": ", slices.size(), " Chrome slices for ",
                trace.entries().size(), " trace entries");
  const auto groups = static_cast<int>(schedule.group_sizes.size());
  std::map<std::pair<int, int>, std::vector<const ChromeSlice*>> tracks;
  for (std::size_t i = 0; i < slices.size(); ++i) {
    const sim::TraceEntry& e = trace.entries()[i];
    const ChromeSlice& s = slices[i];
    const int tid =
        e.unit_kind == sim::UnitKind::kGroup ? e.unit : groups + e.unit;
    if (s.pid != obs::kSimPid || s.tid != tid || s.ts != e.start ||
        s.dur != e.end - e.start)
      return fail(label, ": slice ", i, " (tid ", s.tid, ", ts ", s.ts,
                  ", dur ", s.dur, ") does not read back as its entry (tid ",
                  tid, ", start ", e.start, ", end ", e.end, ")");
    tracks[{s.pid, s.tid}].push_back(&s);
  }
  for (auto& [track, list] : tracks) {
    std::sort(list.begin(), list.end(),
              [](const ChromeSlice* a, const ChromeSlice* b) {
                return a->ts < b->ts;
              });
    for (std::size_t i = 1; i < list.size(); ++i)
      if (list[i]->ts < list[i - 1]->ts + list[i - 1]->dur - 1e-9)
        return fail(label, ": Chrome slices overlap on tid ", track.second,
                    " at ts ", list[i]->ts);
  }
  return std::nullopt;
}

Verdict check_trace_export_verifies(const Case& world) {
  return for_each_fault_run(world, trace_export_of);
}

// --- the off-calendar post resolver equals a calendar-driven pool -----------

/// One step of a post-pool workload: `count` workers join at `t`, or a post
/// arrives at `t` and runs for `duration`.
struct PoolStep {
  bool join = false;
  Seconds t = 0.0;
  ProcCount count = 0;
  Seconds duration = 0.0;
};

/// A seeded workload with what a FIFO pool finds hard: joins and arrivals
/// at equal times, bursts larger than the pool, late joins (possibly none
/// at all) and jittered durations.
std::vector<PoolStep> random_pool_steps(const CaseSpec& spec) {
  Rng rng(spec.seed ^ 0x706F7374706F6F6Cull);  // distinct stream
  const Seconds base = rng.uniform(5.0, 50.0);
  const double jitter = rng.uniform() < 0.25 ? 0.0 : rng.uniform(0.05, 0.6);
  const auto duration = [&] {
    return jitter > 0.0 ? base * std::exp(rng.normal(0.0, jitter)) : base;
  };
  std::vector<PoolStep> steps;
  const auto pool = static_cast<ProcCount>(rng.uniform_int(0, 4));
  if (pool > 0) steps.push_back({true, 0.0, pool, 0.0});
  Seconds t = 0.0;
  const Count arrivals = 4 * spec.scenarios * spec.months;
  for (Count a = 0; a < arrivals;) {
    if (rng.uniform() < 0.6) t += rng.uniform(0.0, base);
    if (rng.uniform() < 0.1) {
      steps.push_back(
          {true, t, static_cast<ProcCount>(rng.uniform_int(1, 4)), 0.0});
      continue;
    }
    const Count burst = rng.uniform() < 0.15 ? rng.uniform_int(2, 12) : 1;
    for (Count b = 0; b < burst && a < arrivals; ++b, ++a)
      steps.push_back({false, t, 0, duration()});
  }
  if (rng.uniform() < 0.5)
    steps.push_back({true, t + rng.uniform(0.0, 4.0 * base),
                     static_cast<ProcCount>(rng.uniform_int(1, 6)), 0.0});
  return steps;
}

struct PostTimes {
  std::vector<Seconds> start, end;  ///< by arrival index; NaN = never ran
};

/// The reference: the calendar-driven pool the simulator used before posts
/// left its calendar. A FIFO free list of workers, a FIFO queue of posts,
/// and a completion event per dispatched post.
PostTimes calendar_pool(const std::vector<PoolStep>& steps,
                        std::size_t arrivals) {
  struct Event {
    int step = -1;    ///< index into steps, or -1 for a completion
    int worker = 0;   ///< the worker a completion frees
  };
  const Seconds unset = std::numeric_limits<Seconds>::quiet_NaN();
  PostTimes times{std::vector<Seconds>(arrivals, unset),
                  std::vector<Seconds>(arrivals, unset)};
  sim::Calendar<Event> calendar;
  for (std::size_t i = 0; i < steps.size(); ++i)
    calendar.schedule(steps[i].t, Event{static_cast<int>(i), 0});
  std::deque<std::size_t> queue;  // post arrival indexes
  std::deque<int> free_workers;
  std::vector<Seconds> durations;
  int next_worker = 0;
  while (!calendar.empty()) {
    const Event event = calendar.pop();
    if (event.step < 0) {
      free_workers.push_back(event.worker);
    } else if (const PoolStep& step = steps[static_cast<std::size_t>(event.step)];
               step.join) {
      for (ProcCount w = 0; w < step.count; ++w)
        free_workers.push_back(next_worker++);
    } else {
      queue.push_back(durations.size());
      durations.push_back(step.duration);
    }
    while (!queue.empty() && !free_workers.empty()) {
      const std::size_t post = queue.front();
      queue.pop_front();
      const int worker = free_workers.front();
      free_workers.pop_front();
      times.start[post] = calendar.now();
      times.end[post] = calendar.now() + durations[post];
      calendar.schedule(times.end[post], Event{-1, worker});
    }
  }
  return times;
}

Verdict check_post_resolver_identity(const Case& world) {
  const std::vector<PoolStep> steps = random_pool_steps(world.spec);
  std::vector<Seconds> durations;
  for (const PoolStep& step : steps)
    if (!step.join) durations.push_back(step.duration);
  const PostTimes expected = calendar_pool(steps, durations.size());

  const Seconds unset = std::numeric_limits<Seconds>::quiet_NaN();
  PostTimes got{std::vector<Seconds>(durations.size(), unset),
                std::vector<Seconds>(durations.size(), unset)};
  sim::PostPool pool;
  std::size_t drawn = 0;
  const auto settle = [&](Seconds now) {
    pool.resolve(
        now, [&] { return durations[drawn++]; },
        [&](const sim::PostPool::Resolved& post) {
          const auto k = static_cast<std::size_t>(post.scenario);
          got.start[k] = post.start;
          got.end[k] = post.end;
        });
  };
  // Resolve after every arrival, as the contract requires, but only after
  // some joins: a late resolve must not change an answer.
  Rng lazy(world.spec.seed ^ 0x6C617A79ull);
  ScenarioId next = 0;
  for (const PoolStep& step : steps) {
    if (step.join) {
      pool.join(step.t, step.count);
      if (lazy.uniform() < 0.5) continue;
    } else {
      pool.arrive(next++, 0, step.t);
    }
    settle(step.t);
  }
  settle(kInfiniteTime);

  Seconds expected_last = 0.0, got_last = 0.0;
  std::size_t ran_count = 0;
  for (std::size_t k = 0; k < durations.size(); ++k) {
    const bool ran = !std::isnan(expected.start[k]);
    if (ran != !std::isnan(got.start[k]))
      return fail("post ", k, ran ? " ran on the calendar pool only"
                                  : " ran on the resolver only");
    if (!ran) continue;
    ++ran_count;
    if (got.start[k] != expected.start[k] || got.end[k] != expected.end[k])
      return fail("post ", k, ": resolver [", got.start[k], ", ", got.end[k],
                  "] != calendar pool [", expected.start[k], ", ",
                  expected.end[k], "]");
    expected_last = std::max(expected_last, expected.end[k]);
    got_last = std::max(got_last, got.end[k]);
  }
  if (got_last != expected_last)
    return fail("last post end ", got_last, " != calendar pool's ",
                expected_last);
  if (drawn != ran_count)
    return fail("resolver drew ", drawn, " durations for ", ran_count,
                " posts that ran");
  return std::nullopt;
}

// --- repartition: greedy, charged-greedy and brute force agree ---------------

Verdict check_repartition_consistency(const Case& world) {
  Rng rng(world.spec.seed ^ 0x7265706172746974ull);
  const int n = world.grid.cluster_count();
  const Count scenarios = world.ensemble.scenarios;
  std::vector<sched::PerformanceVector> performance(
      static_cast<std::size_t>(n));
  for (auto& vector : performance) {
    Seconds makespan = rng.uniform(100.0, 2000.0);
    for (Count k = 0; k < scenarios; ++k) {
      vector.push_back(makespan);
      makespan += rng.uniform(10.0, 500.0);  // monotone in k
    }
  }
  const sched::Repartition greedy =
      sched::greedy_repartition(performance, scenarios);
  if (greedy.total_dags() != scenarios)
    return fail("greedy distributed ", greedy.total_dags(), " of ", scenarios,
                " scenarios");
  if (!sched::is_locally_optimal(performance, greedy))
    return fail("greedy repartition is not locally optimal");
  const sched::Repartition charged = sched::greedy_repartition_charged(
      performance, scenarios, [](std::size_t, Count) { return 0.0; });
  if (charged.assignment != greedy.assignment ||
      charged.makespan != greedy.makespan)
    return fail("a zero placement charge changed the greedy repartition");
  if (n <= 3 && scenarios <= 6) {
    const sched::Repartition optimal =
        sched::brute_force_repartition(performance, scenarios);
    if (optimal.makespan > greedy.makespan + 1e-9)
      return fail("brute force found ", optimal.makespan,
                  ", worse than greedy ", greedy.makespan);
  }
  return std::nullopt;
}

// --- family solve: one DP sweep == one solve per cardinality cap -------------

Verdict check_knapsack_family_identity(const Case& world) {
  Rng rng(world.spec.seed ^ 0x66616d696c796470ull);
  for (int trial = 0; trial < 8; ++trial) {
    knapsack::Problem problem;
    const int kinds = static_cast<int>(rng.uniform_int(1, 6));
    for (int i = 0; i < kinds; ++i)
      problem.items.push_back(
          knapsack::Item{static_cast<int>(rng.uniform_int(1, 11)),
                         rng.uniform(0.0, 2.0)});
    problem.capacity = static_cast<int>(rng.uniform_int(0, 60));
    problem.max_items = rng.uniform_int(1, 10);
    const std::vector<knapsack::Solution> family =
        knapsack::solve_dp_family(problem);
    if (family.size() != static_cast<std::size_t>(problem.max_items))
      return fail("trial ", trial, ": family has ", family.size(),
                  " entries for max_items ", problem.max_items);
    for (Count k = 1; k <= problem.max_items; ++k) {
      knapsack::Problem capped = problem;
      capped.max_items = k;
      const knapsack::Solution direct = knapsack::solve_dp(capped);
      const knapsack::Solution& from_family =
          family[static_cast<std::size_t>(k) - 1];
      if (from_family.counts != direct.counts ||
          from_family.value != direct.value ||
          from_family.weight_used != direct.weight_used)
        return fail("trial ", trial, " cap ", k,
                    ": family solution (value ", from_family.value,
                    ", weight ", from_family.weight_used,
                    ") is not bit-identical to a direct solve (value ",
                    direct.value, ", weight ", direct.weight_used, ")");
      if (!knapsack::is_feasible(capped, from_family))
        return fail("trial ", trial, " cap ", k,
                    ": family solution is infeasible under its own cap");
    }
  }
  return std::nullopt;
}

// --- lease planning: one-pass claimant lists equal the pin scan -------------

/// The reference: the planner before one-pass claimant lists. Every cluster
/// scans every claim's pins, and processors are handed out one at a time to
/// the least-loaded claimant a linear scan finds.
std::vector<service::Lease> scan_plan(
    const platform::Grid& grid,
    const std::vector<service::LeaseClaim>& claims) {
  struct Claimant {
    service::CampaignId campaign = 0;
    double weight = 1.0;
    ProcCount assigned = 0;
    ProcCount floor = 0;
    ProcCount cap = 0;
    bool dropped = false;
    [[nodiscard]] double load() const {
      return static_cast<double>(assigned) / weight;
    }
  };
  const auto fill = [](std::vector<Claimant>& claimants, ProcCount procs) {
    while (procs > 0) {
      Claimant* best = nullptr;
      for (Claimant& c : claimants) {
        if (c.dropped || c.assigned >= c.cap) continue;
        if (best == nullptr || c.load() < best->load() ||
            (c.load() == best->load() && c.campaign < best->campaign))
          best = &c;
      }
      if (best == nullptr) break;
      ++best->assigned;
      --procs;
    }
  };

  std::vector<service::Lease> leases;
  for (ClusterId c = 0; c < grid.cluster_count(); ++c) {
    const platform::Cluster& cluster = grid.cluster(c);
    const ProcCount gmin = cluster.min_group();
    std::vector<Claimant> claimants;
    ProcCount floor_total = 0;
    for (const service::LeaseClaim& claim : claims) {
      Count unfinished_here = 0;
      for (const auto& [pinned_cluster, count] : claim.pinned)
        if (pinned_cluster == c) unfinished_here = count;
      if (unfinished_here == 0 && !claim.newcomer) continue;
      Claimant claimant;
      claimant.campaign = claim.campaign;
      claimant.weight = claim.weight;
      claimant.floor = unfinished_here > 0 ? gmin : 0;
      const Count useful =
          unfinished_here > 0 ? unfinished_here : claim.unfinished_total;
      claimant.cap = static_cast<ProcCount>(std::min<Count>(
          cluster.resources(), cluster.max_group() * useful));
      claimant.assigned = claimant.floor;
      floor_total += claimant.floor;
      claimants.push_back(claimant);
    }
    if (claimants.empty()) continue;
    fill(claimants, cluster.resources() - floor_total);
    for (;;) {
      Claimant* victim = nullptr;
      for (Claimant& cl : claimants) {
        if (cl.dropped || cl.floor > 0) continue;
        if (cl.assigned > 0 && cl.assigned < gmin &&
            (victim == nullptr || cl.campaign > victim->campaign))
          victim = &cl;
      }
      if (victim == nullptr) break;
      const ProcCount freed = victim->assigned;
      victim->assigned = 0;
      victim->dropped = true;
      fill(claimants, freed);
    }
    for (const Claimant& cl : claimants)
      if (cl.assigned > 0) leases.push_back({cl.campaign, c, cl.assigned});
  }
  std::sort(leases.begin(), leases.end(),
            [](const service::Lease& a, const service::Lease& b) {
              return a.campaign != b.campaign ? a.campaign < b.campaign
                                              : a.cluster < b.cluster;
            });
  return leases;
}

/// 1-4 clusters with min groups of 1-6 and tables of 1-8 sizes; about one
/// in five is smaller than its min group, so every lease there is capped
/// below it and must be dropped.
platform::Grid random_lease_grid(Rng& rng) {
  std::vector<platform::Cluster> clusters;
  const auto n = rng.uniform_int(1, 4);
  for (long long c = 0; c < n; ++c) {
    const auto gmin = static_cast<ProcCount>(rng.uniform_int(1, 6));
    const auto sizes = static_cast<std::size_t>(rng.uniform_int(1, 8));
    const auto resources = static_cast<ProcCount>(
        gmin > 1 && rng.uniform() < 0.2 ? rng.uniform_int(1, gmin - 1)
                                        : rng.uniform_int(gmin, 64));
    clusters.emplace_back("c" + std::to_string(c), resources, gmin,
                          std::vector<Seconds>(sizes, 100.0), 10.0);
  }
  return platform::Grid(std::move(clusters));
}

/// A claim set as the service builds one: distinct ids, incumbents pinned
/// within every cluster's floor budget (sometimes filling it exactly), and
/// usually newcomers, each with or without an anchor pin. Weights repeat
/// from {1, 2, 3} (exact load ties) or are fractional.
std::vector<service::LeaseClaim> random_lease_claims(
    const platform::Grid& grid, Rng& rng) {
  const bool integral = rng.uniform() < 0.5;
  const auto weight = [&] {
    return integral ? static_cast<double>(rng.uniform_int(1, 3))
                    : rng.uniform(0.25, 3.25);
  };
  std::vector<int> ids(40);
  std::iota(ids.begin(), ids.end(), 1);
  rng.shuffle(ids);

  const auto incumbents = static_cast<std::size_t>(rng.uniform_int(0, 12));
  std::vector<service::LeaseClaim> claims(incumbents);
  for (std::size_t i = 0; i < incumbents; ++i) {
    claims[i].campaign = static_cast<service::CampaignId>(ids[i]);
    claims[i].weight = weight();
  }
  std::vector<ProcCount> free(static_cast<std::size_t>(grid.cluster_count()));
  for (ClusterId c = 0; c < grid.cluster_count(); ++c) {
    const platform::Cluster& cluster = grid.cluster(c);
    const auto budget = static_cast<long long>(std::min<std::size_t>(
        incumbents, static_cast<std::size_t>(cluster.resources() /
                                             cluster.min_group())));
    const long long pinned =
        rng.uniform() < 0.3 ? budget : rng.uniform_int(0, budget);
    std::vector<int> order(incumbents);
    std::iota(order.begin(), order.end(), 0);
    rng.shuffle(order);
    for (long long k = 0; k < pinned; ++k) {
      service::LeaseClaim& claim = claims[static_cast<std::size_t>(
          order[static_cast<std::size_t>(k)])];
      const Count count = rng.uniform_int(1, 6);
      claim.pinned.push_back({c, count});
      claim.unfinished_total += count;
    }
    free[static_cast<std::size_t>(c)] =
        cluster.resources() -
        static_cast<ProcCount>(pinned) * cluster.min_group();
  }
  std::sort(claims.begin(), claims.end(),
            [](const service::LeaseClaim& a, const service::LeaseClaim& b) {
              return a.campaign < b.campaign;
            });

  // The service plans one newcomer at a time; two or three compete for the
  // same sub-minimum slivers, so the order of drops matters.
  const double roll = rng.uniform();
  const std::size_t newcomers =
      roll < 0.2 ? 0 : roll < 0.7 ? 1 : roll < 0.85 ? 2 : 3;
  for (std::size_t k = 0; k < newcomers; ++k) {
    service::LeaseClaim newcomer;
    newcomer.campaign =
        static_cast<service::CampaignId>(ids[incumbents + k]);
    newcomer.weight = weight();
    newcomer.newcomer = true;
    newcomer.unfinished_total = rng.uniform_int(1, 9);
    std::vector<ClusterId> anchors;
    for (ClusterId c = 0; c < grid.cluster_count(); ++c)
      if (free[static_cast<std::size_t>(c)] >= grid.cluster(c).min_group())
        anchors.push_back(c);
    if (!anchors.empty() && rng.uniform() < 0.5) {
      const ClusterId anchor = anchors[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<long long>(anchors.size()) - 1))];
      newcomer.pinned.push_back({anchor, newcomer.unfinished_total});
      free[static_cast<std::size_t>(anchor)] -=
          grid.cluster(anchor).min_group();
    }
    claims.push_back(std::move(newcomer));
  }
  return claims;
}

Verdict check_lease_plan_identity(const Case& world) {
  Rng rng(world.spec.seed ^ 0x6c65617365706c6eull);
  for (int trial = 0; trial < 8; ++trial) {
    const platform::Grid grid = random_lease_grid(rng);
    const service::LeaseManager manager(&grid);
    for (int round = 0; round < 4; ++round) {
      const std::vector<service::LeaseClaim> claims =
          random_lease_claims(grid, rng);
      const std::vector<service::Lease> got = manager.plan(claims);
      const std::vector<service::Lease> want = scan_plan(grid, claims);
      if (got == want) continue;
      std::ostringstream leases;
      for (const service::Lease& l : got)
        leases << " (" << l.campaign << "," << l.cluster << ")=" << l.procs;
      leases << " vs scan";
      for (const service::Lease& l : want)
        leases << " (" << l.campaign << "," << l.cluster << ")=" << l.procs;
      return fail("trial ", trial, " round ", round, ": ", claims.size(),
                  " claims on ", grid.cluster_count(),
                  " clusters plan differently:", leases.str());
    }
  }
  return std::nullopt;
}

// --- service world -----------------------------------------------------------

/// Scratch directory under the system temp root, removed on scope exit.
/// Unique per process *and* per use so parallel ctest invocations and
/// repeated shrink re-runs never collide.
class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    static std::atomic<std::uint64_t> counter{0};
    path_ = fs::temp_directory_path() /
            ("oagrid-proptest-" + std::to_string(::getpid()) + "-" + tag +
             "-" + std::to_string(counter.fetch_add(1)));
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);  // best effort; never throw from a dtor
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  [[nodiscard]] std::string str() const { return path_.string(); }

 private:
  fs::path path_;
};

service::ServiceOptions service_options_of(const Case& world,
                                           const std::string& journal_dir,
                                           long long kill_after = -1) {
  service::ServiceOptions options;
  options.max_active = 2;
  options.heuristic = world.heuristic;
  options.journal_dir = journal_dir;
  options.group_commit = world.spec.group_commit;
  options.snapshot_every = world.spec.snapshot_every;
  options.kill_after_records = kill_after;
  return options;
}

void submit_missing(service::CampaignService& service,
                    const std::vector<ServiceEntry>& schedule) {
  const std::size_t known = service.campaign_ids().size();
  for (std::size_t i = known; i < schedule.size(); ++i)
    (void)service.submit(schedule[i].spec, schedule[i].at);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

/// The crash-point explorer: run an uninterrupted reference, then kill the
/// service at generator-chosen journal offsets (mid-batch included under
/// group commit, since the kill counter ticks per append, not per commit),
/// recover into a fresh instance and byte-check the drained state.
Verdict check_crash_recovery(const Case& world) {
  if (world.schedule.empty()) return std::nullopt;  // vacuous: no service

  TempDir ref_dir("ref");
  auto reference = std::make_unique<service::CampaignService>(
      world.grid, service_options_of(world, ref_dir.str()));
  submit_missing(*reference, world.schedule);
  if (!reference->run()) return fail("reference run reported a kill");
  const std::uint64_t want_signature = reference->state_signature();
  const std::string ref_journal =
      read_file(service::CampaignService::journal_path(ref_dir.str()));
  const auto records = static_cast<long long>(
      service::read_journal(
          service::CampaignService::journal_path(ref_dir.str()))
          .events.size());
  if (records < 2 || world.spec.kills == 0) return std::nullopt;

  Rng rng(world.spec.seed ^ 0x6372617368657221ull);
  for (int k = 0; k < world.spec.kills; ++k) {
    const long long kill = rng.uniform_int(1, records - 1);
    TempDir dir("kill" + std::to_string(k));
    {
      auto victim = std::make_unique<service::CampaignService>(
          world.grid, service_options_of(world, dir.str(), kill));
      submit_missing(*victim, world.schedule);
      if (victim->run() || !victim->killed())
        return fail("kill point ", kill, ": the armed service survived ",
                    records, " reference records");
    }
    auto survivor = std::make_unique<service::CampaignService>(
        world.grid, service_options_of(world, dir.str()));
    (void)survivor->recover();
    submit_missing(*survivor, world.schedule);
    if (!survivor->run())
      return fail("kill point ", kill, ": the recovered service was killed");
    if (survivor->state_signature() != want_signature)
      return fail("kill point ", kill,
                  ": recovered state signature ", survivor->state_signature(),
                  " != uninterrupted ", want_signature);
    // Without snapshot compaction the healed journal must be the reference
    // journal, byte for byte.
    if (world.spec.snapshot_every == 0 &&
        read_file(service::CampaignService::journal_path(dir.str())) !=
            ref_journal)
      return fail("kill point ", kill,
                  ": recovered journal bytes differ from the reference");
  }
  return std::nullopt;
}

/// Incremental bookkeeping is an optimization, never a behavior change: a
/// plain service and one that cross-checks every cached answer against a
/// full recompute (throwing on any divergence) drain to the same state
/// signature.
Verdict check_service_incremental_identity(const Case& world) {
  if (world.schedule.empty()) return std::nullopt;
  service::ServiceOptions verified = service_options_of(world, "");
  verified.verify_incremental = true;
  auto a = std::make_unique<service::CampaignService>(
      world.grid, service_options_of(world, ""));
  auto b = std::make_unique<service::CampaignService>(world.grid, verified);
  submit_missing(*a, world.schedule);
  submit_missing(*b, world.schedule);
  if (!a->run() || !b->run())
    return fail("a service run reported a kill with no kill armed");
  if (a->state_signature() != b->state_signature())
    return fail("plain signature ", a->state_signature(),
                " != cross-checked signature ", b->state_signature());
  return std::nullopt;
}

}  // namespace

const std::vector<Invariant>& all_invariants() {
  static const std::vector<Invariant> registry = {
      {"analytic-vs-des",
       "closed-form makespan (Eq 1-5) agrees with the DES: exact on "
       "divisible tables, an upper bound otherwise",
       check_analytic_vs_des},
      {"lower-bounds",
       "no heuristic, on any cluster or the grid, beats the chain/area "
       "lower bounds",
       check_lower_bounds},
      {"eval-cache-identity",
       "cached makespans are bit-identical to direct simulation, misses "
       "and hits alike",
       check_eval_cache_identity},
      {"thread-invariance",
       "grid simulation results are bit-identical at any thread count",
       check_thread_invariance},
      {"middleware-vs-grid",
       "Client::submit over a flat or tree deployment equals simulate_grid "
       "bit for bit, network and failures included",
       check_middleware_vs_grid},
      {"net-conservation",
       "fair-share transfers conserve bytes and never beat an uncontended "
       "link",
       check_net_conservation},
      {"parser-round-trip",
       "network and failure models round trip exactly through their text "
       "formats",
       check_parser_round_trip},
      {"inactive-model-identity",
       "a free network and an inactive failure model change nothing, bit "
       "for bit",
       check_inactive_model_identity},
      {"fault-work-conservation",
       "failure injection re-executes exactly the rewound months: mains == "
       "total + rewound, one post per main",
       check_fault_work_conservation},
      {"trace-export-verifies",
       "under kills, rewinds and retries the DES trace verifies, counts every "
       "outcome, and its Chrome export reads back exact and overlap-free",
       check_trace_export_verifies},
      {"post-resolver-identity",
       "the off-calendar post resolver gives every post the start and end of "
       "a calendar-driven FIFO pool, bit for bit",
       check_post_resolver_identity},
      {"knapsack-family-identity",
       "every solution extracted by solve_dp_family is bit-identical to an "
       "independent solve_dp at that cardinality cap",
       check_knapsack_family_identity},
      {"repartition-consistency",
       "greedy repartition is locally optimal, zero charges are identity, "
       "brute force never loses to it",
       check_repartition_consistency},
      {"lease-plan-identity",
       "the lease planner's one-pass claimant lists give every random claim "
       "set the plan of a pin scan per cluster",
       check_lease_plan_identity},
      {"crash-recovery",
       "a service killed at a random journal offset recovers to the "
       "uninterrupted run's state signature and journal bytes",
       check_crash_recovery},
      {"service-incremental-identity",
       "a service cross-checking every incremental answer against a full "
       "recompute drains to the plain service's state signature",
       check_service_incremental_identity},
  };
  return registry;
}

const Invariant* find_invariant(const std::string& name) {
  for (const Invariant& invariant : all_invariants())
    if (invariant.name == name) return &invariant;
  return nullptr;
}

}  // namespace oagrid::testkit
