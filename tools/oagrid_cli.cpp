/// \file oagrid_cli.cpp
/// \brief Command-line front end to the library.
///
///   oagrid_cli schedule  --resources 53 --scenarios 10 --months 150
///   oagrid_cli simulate  --heuristic knapsack --gantt --jitter 0.05
///   oagrid_cli grid      --clusters 5 --resources 30 [--hierarchy]
///   oagrid_cli sweep     --from 20 --to 120 --step 4 --csv
///   oagrid_cli calibrate --reps 2
///   oagrid_cli serve     --campaigns alice:3x12,bob:2x12:w2 --journal DIR
///
/// `schedule` prints every heuristic's grouping and closed-form/simulated
/// makespans for one cluster; `simulate` runs one campaign in the DES;
/// `grid` runs the full §5 client/agent/SeD protocol; `sweep` regenerates a
/// Figure-8-style gain table; `calibrate` benchmarks the real climate
/// pipeline on this machine and emits a grid-file snippet; `serve` runs the
/// multi-tenant campaign service with a crash-recoverable journal
/// (--kill-after injects a crash, --resume recovers from it).
///
/// Each subcommand declares exactly the options it reads: its own, plus the
/// shared groups below (obs on every subcommand; --network; the failure
/// model; the recovery policy).

#include <array>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

#include "appmodel/month.hpp"
#include "climate/calibration.hpp"
#include "common/argparse.hpp"
#include "common/parse_error.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "fault/checkpoint.hpp"
#include "fault/parser.hpp"
#include "middleware/client.hpp"
#include "middleware/local_agent.hpp"
#include "middleware/master_agent.hpp"
#include "net/parser.hpp"
#include "obs/obs.hpp"
#include "platform/parser.hpp"
#include "platform/profiles.hpp"
#include "sched/lower_bounds.hpp"
#include "sched/makespan_model.hpp"
#include "sched/throughput.hpp"
#include "sim/ensemble_sim.hpp"
#include "sim/eval_cache.hpp"
#include "sim/exporters.hpp"
#include "sim/fluid_grid.hpp"
#include "service/service.hpp"
#include "sim/grid_sim.hpp"
#include "sim/local_search.hpp"
#include "sim/trace_stats.hpp"

namespace {

using namespace oagrid;

/// Declares the observability pair every subcommand takes.
void add_obs_options(ArgParser& args) {
  args.add_optional_value(
          "metrics",
          "print a metrics summary table; with =FILE also write "
          "Prometheus-style text exposition to FILE",
          "")
      .add_option("trace-out",
                  "write a Chrome trace-event JSON file "
                  "(chrome://tracing / Perfetto)",
                  "");
}

/// Lifetime of one observed CLI command: flips obs::enabled() on after
/// parsing and exports/prints everything the run recorded.
class ObsSession {
 public:
  explicit ObsSession(const ArgParser& args)
      : metrics_(args.flag("metrics")),
        metrics_file_(args.get("metrics")),
        trace_file_(args.get("trace-out")) {
    if (metrics_ || !trace_file_.empty()) {
      obs::set_enabled(true);
      obs::reset();
    }
  }

  /// Call after all instrumented work (and worker teardown) finished.
  /// Commands whose stdout is a file format (calibrate's grid file,
  /// export's DOT) report on std::cerr so that output stays parseable.
  void finish(std::ostream& report = std::cout) const {
    if (!obs::enabled()) return;
    if (metrics_) {
      report << "\n== metrics ==\n";
      obs::write_metrics_table(report, obs::metrics());
      if (!metrics_file_.empty()) {
        std::ofstream out(metrics_file_);
        if (!out)
          throw std::invalid_argument("cannot write " + metrics_file_);
        obs::write_prometheus(out, obs::metrics());
        report << "metrics exposition written to " << metrics_file_ << "\n";
      }
    }
    if (!trace_file_.empty()) {
      std::ofstream out(trace_file_);
      if (!out) throw std::invalid_argument("cannot write " + trace_file_);
      obs::write_chrome_trace(out, obs::trace_buffer());
      report << "Chrome trace (" << obs::trace_buffer().size()
             << " events) written to " << trace_file_ << "\n";
      if (obs::trace_buffer().dropped() > 0)
        report << "warning: " << obs::trace_buffer().dropped()
               << " events dropped (buffer capacity)\n";
    }
  }

 private:
  bool metrics_;
  std::string metrics_file_;
  std::string trace_file_;
};

/// Declares --network, read by network_from (simulate / grid / sweep /
/// dynamic).
void add_network_option(ArgParser& args) {
  args.add_optional_value(
      "network",
      "price data movement over a network model: =FILE parses a "
      "description (see docs/network.md), bare flag uses the built-in "
      "RENATER profile",
      "");
}

/// The network model selected by --network, sized to `clusters`, or nullopt
/// when the flag is absent.
std::optional<net::NetworkModel> network_from(const ArgParser& args,
                                              int clusters) {
  if (!args.flag("network")) return std::nullopt;
  const std::string file = args.get("network");
  if (file.empty()) return net::renater_network(clusters);
  std::ifstream in(file);
  if (!in) throw std::invalid_argument("cannot open " + file);
  net::NetworkModel model = net::parse_network(in, file);
  if (model.cluster_count() != clusters)
    throw std::invalid_argument(
        "network file covers " + std::to_string(model.cluster_count()) +
        " cluster(s), the platform has " + std::to_string(clusters));
  return model;
}

/// Declares the failure-model group, read by fault_model_from (simulate /
/// grid / sweep / dynamic / serve).
void add_failure_options(ArgParser& args) {
  args.add_optional_value(
          "failures",
          "inject cluster failures: =FILE parses a failure trace "
          "(see docs/fault.md), bare flag draws exponential outages from "
          "--mtbf/--mttr on every cluster",
          "")
      .add_option("mtbf", "mean time between failures [s] (bare --failures)",
                  "86400")
      .add_option("mttr", "mean time to repair [s] (bare --failures)", "3600")
      .add_option("fault-seed", "failure-model seed (bare --failures)", "1");
}

/// Declares the recovery group, read by fault_options_from (simulate / grid
/// / sweep).
void add_recovery_options(ArgParser& args) {
  args.add_option("recovery", "recovery policy: wait | reschedule | migrate",
                  "reschedule")
      .add_option("checkpoint-months",
                  "restart-file retention cadence in months (0 = Young/Daly "
                  "automatic)",
                  "1");
}

/// The failure model selected by --failures, sized to `clusters`, or nullopt
/// when the flag is absent.
std::optional<fault::FailureModel> fault_model_from(const ArgParser& args,
                                                    int clusters) {
  if (!args.flag("failures")) return std::nullopt;
  const std::string file = args.get("failures");
  if (file.empty())
    return fault::FailureModel::uniform_exponential(
        clusters, args.get_double("mtbf"), args.get_double("mttr"),
        static_cast<std::uint64_t>(args.get_int("fault-seed")));
  std::ifstream in(file);
  if (!in) throw std::invalid_argument("cannot open " + file);
  fault::FailureModel model = fault::parse_failures(in, file);
  if (model.cluster_count() != clusters)
    throw std::invalid_argument(
        "failure file covers " + std::to_string(model.cluster_count()) +
        " cluster(s), the platform has " + std::to_string(clusters));
  return model;
}

/// The failure injection selected by --failures, --recovery and
/// --checkpoint-months over `clusters` clusters; inactive without
/// --failures. A cadence of 0 asks for the Young/Daly optimum against the
/// most failure-prone stochastic cluster: one scenario month lasts NS / the
/// best throughput of `anchor`, and keeping one restart costs
/// `checkpoint_cost` (the hand-off transfer when a network is attached) —
/// free checkpoints round down to the monthly cadence, which is exactly the
/// application's natural behaviour.
sim::GridFaultOptions fault_options_from(const ArgParser& args, int clusters,
                                         const platform::Cluster& anchor,
                                         const appmodel::Ensemble& ensemble,
                                         Seconds checkpoint_cost) {
  sim::GridFaultOptions faults;
  auto model = fault_model_from(args, clusters);
  if (!model) return faults;
  faults.model = std::move(*model);
  faults.recovery = fault::recovery_policy_from(args.get("recovery"));
  if (const long long k = args.get_int("checkpoint-months"); k > 0) {
    faults.checkpoint_months = static_cast<MonthIndex>(k);
    return faults;
  }
  Seconds mtbf = 0.0;
  for (ClusterId c = 0; c < faults.model.cluster_count(); ++c) {
    const fault::FailureProcess& process = faults.model.process(c);
    const bool stochastic =
        process.kind == fault::ProcessKind::kExponential ||
        process.kind == fault::ProcessKind::kWeibull;
    if (stochastic && (mtbf == 0.0 || process.mtbf < mtbf))
      mtbf = process.mtbf;
  }
  if (mtbf <= 0.0) return faults;  // trace-only or dead: every restart
  const Seconds month_seconds =
      static_cast<double>(ensemble.scenarios) /
      sched::best_throughput(anchor, ensemble.scenarios);
  faults.checkpoint_months = fault::optimal_checkpoint_months(
      month_seconds, checkpoint_cost, mtbf,
      static_cast<MonthIndex>(ensemble.months));
  return faults;
}

void print_fault_stats(const fault::FaultStats& stats) {
  std::cout << "failures:  " << stats.outages << " outages, " << stats.kills
            << " in-flight kills, " << stats.rewound_months
            << " months rewound, " << fmt(stats.lost_seconds, 0)
            << " s of work lost, " << fmt(stats.downtime_seconds, 0)
            << " s of downtime\n";
}

sched::Heuristic heuristic_from(const std::string& name) {
  if (name == "basic") return sched::Heuristic::kBasic;
  if (name == "redistribute") return sched::Heuristic::kRedistribute;
  if (name == "all-for-main") return sched::Heuristic::kAllForMain;
  if (name == "knapsack") return sched::Heuristic::kKnapsack;
  throw std::invalid_argument(
      "unknown heuristic '" + name +
      "' (basic | redistribute | all-for-main | knapsack)");
}

/// The platform described in `file`; parse errors name the file and line.
platform::Grid read_grid_file(const std::string& file) {
  std::ifstream in(file);
  if (!in) throw std::invalid_argument("cannot open " + file);
  return platform::parse_grid(in, file);
}

/// The cluster of schedule / simulate: index --profile of --grid-file, or
/// built-in profile --profile at --resources processors.
platform::Cluster cluster_from(const ArgParser& args) {
  const long long profile = args.get_int("profile");
  if (const std::string& file = args.get("grid-file"); !file.empty())
    return read_grid_file(file).cluster(static_cast<ClusterId>(profile));
  return platform::make_builtin_cluster(
      static_cast<int>(profile),
      static_cast<ProcCount>(args.get_int("resources")));
}

/// The platform of grid / serve: --grid-file, or the first --clusters
/// built-in clusters at --resources processors each.
platform::Grid grid_from(const ArgParser& args) {
  if (const std::string& file = args.get("grid-file"); !file.empty())
    return read_grid_file(file);
  return platform::make_builtin_grid(
             static_cast<ProcCount>(args.get_int("resources")))
      .prefix(static_cast<int>(args.get_int("clusters")));
}

void add_common_workload(ArgParser& args) {
  args.add_option("resources", "processors on the cluster", "53")
      .add_option("scenarios", "independent scenarios (NS)", "10")
      .add_option("months", "months per scenario (NM)", "150")
      .add_option("profile", "built-in cluster profile 0-4 or index in --grid-file", "1")
      .add_option("grid-file", "platform description file (overrides --profile table)", "");
}

/// Submits one campaign through a deployed agent hierarchy and prints the
/// per-cluster outcome. --network prices data movement, --failures injects
/// outages into every daemon's share, and --step-timeout > 0 drops daemons
/// that miss a protocol-step deadline.
void run_grid_campaign(middleware::Deployment& deployment,
                       const platform::Grid& grid,
                       const appmodel::Ensemble& ensemble,
                       sched::Heuristic heuristic, const ArgParser& args) {
  const auto home = static_cast<ClusterId>(args.get_int("home"));
  middleware::Client::StagingOptions staging;
  if (const auto network = network_from(args, grid.cluster_count()))
    staging.data = sim::campaign_network_options(*network, ensemble, {}, home);
  if (const double budget = args.get_double("transfer-deadline"); budget > 0.0)
    staging.transfer_deadline = budget;
  sim::GridFaultOptions faults;
  if (args.flag("failures")) {
    faults = fault_options_from(args, grid.cluster_count(), grid.cluster(home),
                                ensemble, 0.0);
    std::cout << "failure injection: recovery=" << args.get("recovery")
              << ", checkpoint every " << faults.checkpoint_months
              << " month(s)\n\n";
  }

  middleware::Client client(deployment);
  middleware::CampaignResult result;
  if (const long long timeout_ms = args.get_int("step-timeout");
      timeout_ms > 0) {
    auto guarded = client.submit_with_deadline(
        ensemble, heuristic, std::chrono::milliseconds(timeout_ms), staging,
        faults);
    std::cout << guarded.responsive.size() << " cluster(s) answered, "
              << guarded.unresponsive.size() << " dropped after the "
              << timeout_ms << " ms step deadline\n";
    result = std::move(guarded.campaign);
  } else {
    result = client.submit(ensemble, heuristic, staging, faults);
  }

  TableWriter table({"cluster", "procs", "scenarios", "stage [s]",
                     "compute [s]", "collect [s]", "makespan", "util %"});
  for (ClusterId c = 0; c < grid.cluster_count(); ++c) {
    const auto ci = static_cast<std::size_t>(c);
    Seconds compute = 0;
    double util = 0;
    for (const auto& exec : result.executions)
      if (exec.cluster == c) {
        compute = exec.makespan;
        util = exec.group_utilization;
      }
    const bool unavailable = compute >= fault::kUnavailableTime;
    table.add_row(
        {grid.cluster(c).name(), std::to_string(grid.cluster(c).resources()),
         std::to_string(result.repartition.dags_per_cluster[ci]),
         fmt(result.staging_seconds[ci], 1),
         unavailable ? "unavailable" : fmt(compute, 0),
         fmt(result.collection_seconds[ci], 1),
         unavailable ? "-" : fmt_duration(result.cluster_makespans[ci]),
         fmt(100.0 * util, 1)});
  }
  table.print(std::cout);
  if (result.transfer_mb > 0.0) {
    std::cout << "\ndata moved: " << fmt(result.transfer_mb, 0) << " MB";
    if (result.deadline_misses > 0)
      std::cout << " (" << result.deadline_misses
                << " transfer(s) missed the deadline)";
  }
  if (result.makespan >= fault::kUnavailableTime)
    std::cout << "\ncampaign makespan: unavailable (some placed work can "
                 "never complete under this failure model)\n";
  else
    std::cout << "\ncampaign makespan: " << fmt_duration(result.makespan)
              << "\n";
  if (faults.active()) print_fault_stats(result.fault);
}

int cmd_schedule(const std::vector<std::string>& argv) {
  ArgParser args("oagrid_cli schedule",
                 "Compare the paper's four heuristics on one cluster");
  add_common_workload(args);
  add_obs_options(args);
  args.parse(argv);
  const ObsSession obs_session(args);

  const platform::Cluster cluster = cluster_from(args);
  const appmodel::Ensemble ensemble{args.get_int("scenarios"),
                                    args.get_int("months")};

  std::cout << "Cluster '" << cluster.name() << "', " << cluster.resources()
            << " processors; NS=" << ensemble.scenarios
            << " NM=" << ensemble.months << "\n\n";
  const Seconds bound =
      sched::ensemble_lower_bounds(cluster, ensemble).combined();
  TableWriter table({"heuristic", "grouping", "makespan [s]", "human",
                     "gap to LB"});
  for (const auto h :
       {sched::Heuristic::kBasic, sched::Heuristic::kRedistribute,
        sched::Heuristic::kAllForMain, sched::Heuristic::kKnapsack}) {
    const auto schedule = sched::make_schedule(h, cluster, ensemble);
    const auto result = sim::simulate_ensemble(cluster, schedule, ensemble);
    table.add_row({to_string(h), schedule.describe(), fmt(result.makespan, 0),
                   fmt_duration(result.makespan),
                   fmt(100.0 * (result.makespan - bound) / bound, 2) + "%"});
  }
  table.print(std::cout);
  std::cout << "\nlower bound: " << fmt(bound, 0) << " s ("
            << fmt_duration(bound) << ")\n";
  obs_session.finish();
  return 0;
}

int cmd_simulate(const std::vector<std::string>& argv) {
  ArgParser args("oagrid_cli simulate",
                 "Discrete-event simulation of one campaign");
  add_common_workload(args);
  args.add_option("heuristic", "basic | redistribute | all-for-main | knapsack",
                  "knapsack")
      .add_option("jitter", "duration noise (stddev of ln factor)", "0")
      .add_option("task-failures", "per-task failure probability", "0")
      .add_option("seed", "perturbation seed", "1")
      .add_option("trace-csv", "write the execution trace to this file", "")
      .add_option("svg", "write an SVG Gantt chart to this file", "")
      .add_option("threads",
                  "worker cap for --optimize's parallel local search "
                  "(0 = all)",
                  "0")
      .add_flag("gantt", "print an ASCII Gantt chart")
      .add_flag("optimize", "refine the grouping with local search first");
  add_failure_options(args);
  add_recovery_options(args);
  add_network_option(args);
  add_obs_options(args);
  args.parse(argv);
  const ObsSession obs_session(args);

  const appmodel::Ensemble ensemble{args.get_int("scenarios"),
                                    args.get_int("months")};
  const platform::Cluster cluster = cluster_from(args);
  sched::GroupSchedule schedule = sched::make_schedule(
      heuristic_from(args.get("heuristic")), cluster, ensemble);
  if (args.flag("optimize")) {
    sim::LocalSearchOptions search;
    search.threads = static_cast<std::size_t>(args.get_int("threads"));
    const auto refined = sim::local_search_grouping(cluster, ensemble, search);
    std::cout << "local search: " << refined.evaluations << " simulations, "
              << refined.accepted_moves << " accepted moves\n";
    schedule = refined.best;
  }

  const bool trace_views = args.flag("gantt") ||
                           !args.get("trace-csv").empty() ||
                           !args.get("svg").empty();
  sim::SimOptions options;
  options.capture_trace = trace_views || obs::enabled();
  options.perturbation.duration_jitter = args.get_double("jitter");
  options.perturbation.failure_probability = args.get_double("task-failures");
  options.perturbation.seed = static_cast<std::uint64_t>(args.get_int("seed"));
  if (const auto network = network_from(args, 1)) {
    // Single cluster: the network prices the inter-month restart hand-off
    // over the cluster's own fabric (shared storage between group runs).
    options.restart_handoff =
        network->transfer_time(0, 0, appmodel::VolumeParams{}.restart_mb);
    std::cout << "restart hand-off: " << fmt(options.restart_handoff, 4)
              << " s per month boundary\n";
  }
  const sim::GridFaultOptions faults =
      fault_options_from(args, 1, cluster, ensemble, options.restart_handoff);
  if (args.flag("failures")) {
    options.fault = {&faults.model, 0, faults.recovery,
                     faults.checkpoint_months, options.restart_handoff};
    std::cout << "failure injection: recovery=" << args.get("recovery")
              << ", checkpoint every " << faults.checkpoint_months
              << " month(s)\n";
  }

  const sim::SimResult result =
      sim::simulate_ensemble(cluster, schedule, ensemble, options);
  if (obs::enabled())
    sim::export_sim_timeline(result.trace, obs::trace_buffer(), 0,
                             cluster.name());
  std::cout << "grouping:  " << schedule.describe() << "\n";
  if (options.fault.active() && result.makespan >= fault::kUnavailableTime)
    std::cout << "makespan:  unavailable (the campaign cannot complete "
                 "under this failure model)\n";
  else
    std::cout << "makespan:  " << fmt(result.makespan, 1) << " s ("
              << fmt_duration(result.makespan) << ")\n";
  std::cout << "tasks:     " << result.mains_executed << " mains, "
            << result.posts_executed << " posts, " << result.retries
            << " retries\n";
  std::cout << "group utilization: " << fmt(100.0 * result.group_utilization, 1)
            << "%\n";
  if (options.fault.active()) print_fault_stats(result.fault);
  if (trace_views && result.retries == 0) {
    const sim::TraceStats stats = sim::analyze_trace(result.trace);
    std::cout << "post latency:      mean " << fmt(stats.mean_post_latency, 1)
              << " s, max " << fmt(stats.max_post_latency, 1)
              << " s (diagnostics waiting for a post slot)\n";
  }
  if (args.flag("gantt")) std::cout << "\n" << result.trace.render_gantt(100);
  if (const std::string path = args.get("trace-csv"); !path.empty()) {
    std::ofstream out(path);
    if (!out) throw std::invalid_argument("cannot write " + path);
    result.trace.write_csv(out);
    std::cout << "trace written to " << path << "\n";
  }
  if (const std::string path = args.get("svg"); !path.empty()) {
    std::ofstream out(path);
    if (!out) throw std::invalid_argument("cannot write " + path);
    sim::SvgOptions svg;
    svg.title = "Ocean-Atmosphere campaign — " + schedule.describe();
    sim::write_svg_gantt(out, result.trace, svg);
    std::cout << "SVG Gantt written to " << path << "\n";
  }
  obs_session.finish();
  return 0;
}

int cmd_dynamic(const std::vector<std::string>& argv) {
  ArgParser args("oagrid_cli dynamic",
                 "Fluid grid with speed drift: static vs migrating placement");
  args.add_option("clusters", "number of built-in clusters (2-5)", "5")
      .add_option("resources", "processors per cluster", "25")
      .add_option("scenarios", "independent scenarios (NS)", "10")
      .add_option("months", "months per scenario (NM)", "120")
      .add_option("sigma", "per-epoch log speed drift", "0.2")
      .add_option("epoch", "re-evaluation period [s]", "14400")
      .add_option("cost",
                  "migration cost [s]; < 0 derives it from the network "
                  "model (or the 300 s legacy flat cost without one)",
                  "-1")
      .add_option("state-mb", "state shipped per migration [MB]", "120")
      .add_option("seeds", "number of drift seeds", "10");
  add_failure_options(args);
  add_network_option(args);
  add_obs_options(args);
  args.parse(argv);
  const ObsSession obs_session(args);

  const auto seeds = args.get_int("seeds");
  if (seeds < 1) throw std::invalid_argument("--seeds must be >= 1");
  const auto grid =
      platform::make_builtin_grid(static_cast<ProcCount>(args.get_int("resources")))
          .prefix(static_cast<int>(args.get_int("clusters")));
  const appmodel::Ensemble ensemble{args.get_int("scenarios"),
                                    args.get_int("months")};
  const auto network = network_from(args, grid.cluster_count());
  const auto failure_model = fault_model_from(args, grid.cluster_count());
  TableWriter table({"policy", "mean makespan", "human", "mean migrations",
                     "mean migr [s]"});
  for (const auto policy :
       {sim::GridPolicy::kStatic, sim::GridPolicy::kRebalanceUnstarted,
        sim::GridPolicy::kMigrateWithState}) {
    double total = 0, moves = 0, stalls = 0;
    for (long long seed = 1; seed <= seeds; ++seed) {
      sim::DriftModel drift;
      drift.sigma = args.get_double("sigma");
      drift.epoch_length = args.get_double("epoch");
      drift.migration_cost_override = args.get_double("cost");
      drift.migration_state_mb = args.get_double("state-mb");
      if (network) drift.network = *network;
      if (failure_model) drift.failures = *failure_model;
      drift.seed = static_cast<std::uint64_t>(seed);
      const auto result = simulate_dynamic_grid(grid, ensemble, policy, drift);
      total += result.makespan;
      moves += result.migrations;
      stalls += result.migration_seconds;
    }
    table.add_row({to_string(policy), fmt(total / static_cast<double>(seeds), 0),
                   fmt_duration(total / static_cast<double>(seeds)),
                   fmt(moves / static_cast<double>(seeds), 1),
                   fmt(stalls / static_cast<double>(seeds), 0)});
  }
  table.print(std::cout);
  obs_session.finish();
  return 0;
}

int cmd_export(const std::vector<std::string>& argv) {
  ArgParser args("oagrid_cli export",
                 "Write workflow DAGs as Graphviz DOT");
  args.add_positional("what", "month | fused | scenario")
      .add_option("months", "chain length for 'scenario'", "3")
      .add_option("out", "output file (default: stdout)", "");
  add_obs_options(args);
  args.parse(argv);
  const ObsSession obs_session(args);

  std::ostringstream dot;
  const std::string what = args.get("what");
  if (what == "month") {
    sim::write_dot(dot, appmodel::make_month_dag().graph, "monthly_simulation");
  } else if (what == "fused") {
    sim::write_dot(dot, appmodel::make_fused_month().graph, "fused_month");
  } else if (what == "scenario") {
    sim::write_dot(dot,
                   appmodel::make_fused_scenario(
                       static_cast<int>(args.get_int("months")))
                       .graph,
                   "scenario_chain");
  } else {
    throw std::invalid_argument("unknown DAG '" + what +
                                "' (month | fused | scenario)");
  }
  if (const std::string path = args.get("out"); !path.empty()) {
    std::ofstream out(path);
    if (!out) throw std::invalid_argument("cannot write " + path);
    out << dot.str();
    std::cout << "DOT written to " << path << "\n";
  } else {
    std::cout << dot.str();
  }
  obs_session.finish(std::cerr);
  return 0;
}

int cmd_grid(const std::vector<std::string>& argv) {
  ArgParser args("oagrid_cli grid",
                 "Full §5 campaign over a heterogeneous grid (Figure 9 flow)");
  args.add_option("clusters", "number of built-in clusters (2-5)", "5")
      .add_option("resources", "processors per cluster", "30")
      .add_option("scenarios", "independent scenarios (NS)", "10")
      .add_option("months", "months per scenario (NM)", "150")
      .add_option("heuristic", "grouping heuristic", "knapsack")
      .add_option("grid-file", "platform description file", "")
      .add_option("branching", "agent-tree branching factor (with --hierarchy)", "2")
      .add_option("step-timeout",
                  "per-protocol-step daemon deadline [wall ms, 0 = wait "
                  "forever]",
                  "0")
      .add_flag("hierarchy", "deploy a DIET-style Local Agent tree");
  add_failure_options(args);
  add_recovery_options(args);
  add_network_option(args);
  args.add_option("home", "cluster that stages inputs and archives results",
                  "0")
      .add_option("transfer-deadline",
                  "per-transfer budget [simulated s, 0 = none]; misses are "
                  "reported",
                  "0");
  add_obs_options(args);
  args.parse(argv);
  const ObsSession obs_session(args);

  const platform::Grid grid = grid_from(args);
  const appmodel::Ensemble ensemble{args.get_int("scenarios"),
                                    args.get_int("months")};
  const auto heuristic = heuristic_from(args.get("heuristic"));

  std::unique_ptr<middleware::Deployment> deployment;
  if (args.flag("hierarchy")) {
    auto tree = std::make_unique<middleware::HierarchicalAgent>(
        grid, static_cast<int>(args.get_int("branching")));
    std::cout << "Hierarchical deployment: " << tree->agent_count()
              << " local agents, depth " << tree->tree_depth() << "\n";
    deployment = std::move(tree);
  } else {
    deployment = std::make_unique<middleware::MasterAgent>(grid);
  }

  run_grid_campaign(*deployment, grid, ensemble, heuristic, args);
  deployment.reset();  // join SeD threads before the exporters run
  obs_session.finish();
  return 0;
}

int cmd_sweep(const std::vector<std::string>& argv) {
  ArgParser args("oagrid_cli sweep",
                 "Gain-vs-resources sweep (Figure 8 regeneration)");
  args.add_option("from", "first resource count", "20")
      .add_option("to", "last resource count", "120")
      .add_option("step", "resource increment", "4")
      .add_option("scenarios", "independent scenarios (NS)", "10")
      .add_option("months", "months per scenario (NM)", "150")
      .add_option("profile", "built-in cluster profile 0-4", "1")
      .add_option("threads", "worker cap for the parallel sweep (0 = all)",
                  "0")
      .add_flag("csv", "emit CSV instead of an aligned table");
  add_failure_options(args);
  add_recovery_options(args);
  add_network_option(args);
  add_obs_options(args);
  args.parse(argv);
  const ObsSession obs_session(args);

  const appmodel::Ensemble ensemble{args.get_int("scenarios"),
                                    args.get_int("months")};
  sim::SimOptions sweep_options;
  if (const auto network = network_from(args, 1))
    sweep_options.restart_handoff =
        network->transfer_time(0, 0, appmodel::VolumeParams{}.restart_mb);
  const long long from = args.get_int("from");
  const long long to = args.get_int("to");
  const long long step = args.get_int("step");
  if (step < 1) throw std::invalid_argument("--step must be >= 1");
  if (from > to) throw std::invalid_argument("--from must not exceed --to");
  std::vector<ProcCount> resource_grid;
  for (long long r = from; r <= to; r += step)
    resource_grid.push_back(static_cast<ProcCount>(r));
  const int profile = static_cast<int>(args.get_int("profile"));
  // The automatic cadence is anchored on the smallest swept cluster (the
  // slowest months, hence the most conservative checkpoint interval).
  sim::GridFaultOptions faults;
  if (args.flag("failures") && !resource_grid.empty()) {
    faults = fault_options_from(
        args, 1, platform::make_builtin_cluster(profile, resource_grid.front()),
        ensemble, sweep_options.restart_handoff);
    sweep_options.fault = {&faults.model, 0, faults.recovery,
                           faults.checkpoint_months,
                           sweep_options.restart_handoff};
  }

  // One cell = four heuristics on one cluster size; cells are independent and
  // every makespan flows through the eval cache, so a repeated sweep over an
  // overlapping resource range is mostly cache hits. Row order (hence output)
  // is independent of the thread count.
  struct SweepCell {
    Seconds basic = 0.0;
    std::array<Seconds, 3> improved{};
  };
  const std::vector<SweepCell> cells = parallel_transform(
      shared_pool(), resource_grid.size(),
      [&](std::size_t i) {
        const auto cluster =
            platform::make_builtin_cluster(profile, resource_grid[i]);
        auto eval = [&](sched::Heuristic h) {
          return sim::cached_makespan(cluster,
                                      sched::make_schedule(h, cluster, ensemble),
                                      ensemble, sweep_options);
        };
        SweepCell cell;
        cell.basic = eval(sched::Heuristic::kBasic);
        cell.improved = {eval(sched::Heuristic::kRedistribute),
                         eval(sched::Heuristic::kAllForMain),
                         eval(sched::Heuristic::kKnapsack)};
        return cell;
      },
      static_cast<std::size_t>(args.get_int("threads")));

  TableWriter table({"R", "basic [s]", "gain1 %", "gain2 %", "gain3 %"});
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const SweepCell& cell = cells[i];
    std::vector<std::string> row{std::to_string(resource_grid[i]),
                                 fmt(cell.basic, 0)};
    for (const Seconds ms : cell.improved)
      row.push_back(fmt(100.0 * (cell.basic - ms) / cell.basic, 2));
    table.add_row(row);
  }
  if (args.flag("csv"))
    table.print_csv(std::cout);
  else
    table.print(std::cout);
  obs_session.finish();
  return 0;
}

struct ServeEntry {
  service::CampaignSpec spec;
  Seconds at = 0.0;
};

/// Parses the --campaigns list: `owner:NSxNM[:wW][@arrival]`, comma
/// separated, in non-decreasing arrival order (the service's submission
/// invariant). Example: "alice:3x12,bob:2x12:w2,carol:2x8@20000".
std::vector<ServeEntry> parse_campaigns(const std::string& text) {
  const auto bad = [](const std::string& item) {
    return std::invalid_argument("bad campaign '" + item +
                                 "' (expected owner:NSxNM[:wW][@arrival])");
  };
  std::vector<ServeEntry> entries;
  std::stringstream list(text);
  std::string item;
  while (std::getline(list, item, ',')) {
    if (item.empty()) continue;
    // Every number must span its whole token: "3x12abc" is no 3x12.
    const auto number = [&](const std::string& token, auto& value) {
      std::istringstream in(token);
      if (!read_number(in, value) || !in.eof()) throw bad(item);
    };
    ServeEntry entry;
    std::string body = item;
    if (const auto at = body.find('@'); at != std::string::npos) {
      number(body.substr(at + 1), entry.at);
      body.resize(at);
    }
    std::vector<std::string> parts;
    std::stringstream fields(body);
    for (std::string part; std::getline(fields, part, ':');)
      parts.push_back(part);
    if (parts.size() < 2 || parts.size() > 3) throw bad(item);
    entry.spec.owner = parts[0];
    const auto x = parts[1].find('x');
    if (x == std::string::npos) throw bad(item);
    number(parts[1].substr(0, x), entry.spec.scenarios);
    number(parts[1].substr(x + 1), entry.spec.months);
    if (parts.size() == 3) {
      if (parts[2].size() < 2 || parts[2][0] != 'w') throw bad(item);
      number(parts[2].substr(1), entry.spec.weight);
    }
    entries.push_back(std::move(entry));
  }
  if (entries.empty())
    throw std::invalid_argument("--campaigns lists no campaigns");
  return entries;
}

int cmd_serve(const std::vector<std::string>& argv) {
  ArgParser args("oagrid_cli serve",
                 "Multi-tenant campaign service with a crash-recoverable "
                 "journal");
  args.add_option("campaigns",
                  "comma list owner:NSxNM[:wW][@arrival], arrivals "
                  "non-decreasing",
                  "alice:3x12,bob:2x12:w2,carol:2x8@20000")
      .add_option("clusters", "number of built-in clusters (1-5)", "3")
      .add_option("resources", "processors per cluster", "25")
      .add_option("grid-file", "platform description file", "")
      .add_option("policy", "queue policy: fifo | fair | srmf", "fair")
      .add_option("heuristic", "grouping heuristic", "knapsack")
      .add_option("estimator", "performance backend: analytic | sim",
                  "analytic")
      .add_option("max-active", "concurrently running tenants", "4")
      .add_option("queue-capacity", "admission-control queue bound", "64")
      .add_option("journal",
                  "journal directory: enables crash recovery (created if "
                  "missing; without --resume any previous journal there is "
                  "discarded)",
                  "")
      .add_option("snapshot-every",
                  "journal records between compacting snapshots (0 = never)",
                  "0")
      .add_option("kill-after",
                  "crash injection: die after N journal appends (-1 = off)",
                  "-1")
      .add_option("threads",
                  "threads for batched performance estimation "
                  "(1 = serial, 0 = all cores; results are identical)",
                  "1")
      .add_flag("resume",
                "recover from --journal, then run the not-yet-journaled "
                "tail of --campaigns");
  add_failure_options(args);
  args.add_option("checkpoint-months",
                  "restart-file cadence in months the failure-aware "
                  "estimate assumes (0 = monthly)",
                  "1");
  add_obs_options(args);
  args.parse(argv);
  const ObsSession obs_session(args);

  const platform::Grid grid = grid_from(args);

  service::ServiceOptions options;
  options.policy = service::queue_policy_from(args.get("policy"));
  options.heuristic = heuristic_from(args.get("heuristic"));
  options.max_active = static_cast<int>(args.get_int("max-active"));
  options.queue_capacity =
      static_cast<std::size_t>(args.get_int("queue-capacity"));
  options.journal_dir = args.get("journal");
  options.snapshot_every = args.get_int("snapshot-every");
  options.kill_after_records = args.get_int("kill-after");
  // One journal flush per processed event; the bytes on disk are those of
  // per-record commits.
  options.group_commit = true;
  options.estimator_threads =
      static_cast<std::size_t>(args.get_int("threads"));
  std::unique_ptr<service::PerfEstimator> estimator;
  if (const std::string name = args.get("estimator"); name == "sim")
    estimator = std::make_unique<service::SimEstimator>();
  else if (name != "analytic")
    throw std::invalid_argument("unknown estimator '" + name +
                                "' (analytic | sim)");
  options.estimator = estimator.get();

  const auto failure_model = fault_model_from(args, grid.cluster_count());
  std::unique_ptr<service::FailureAwareEstimator> failure_estimator;
  if (failure_model) {
    if (!estimator) estimator = std::make_unique<service::AnalyticEstimator>();
    // The closed-form inflation has no per-checkpoint cost to weigh, so the
    // automatic cadence collapses to the monthly restart.
    const long long cadence = args.get_int("checkpoint-months");
    failure_estimator = std::make_unique<service::FailureAwareEstimator>(
        *estimator, grid, *failure_model,
        cadence > 0 ? static_cast<MonthIndex>(cadence) : 1);
    options.estimator = failure_estimator.get();
  }

  const bool resume = args.flag("resume");
  if (resume && options.journal_dir.empty())
    throw std::invalid_argument("--resume needs --journal DIR");
  if (!options.journal_dir.empty()) {
    std::filesystem::create_directories(options.journal_dir);
    if (!resume) {
      // A fresh serve owns the directory: drop any previous run's state so
      // stale snapshots cannot outlive the journal they belong to.
      std::filesystem::remove(
          service::CampaignService::journal_path(options.journal_dir));
      std::filesystem::remove(
          service::CampaignService::snapshot_path(options.journal_dir));
    }
  }

  service::CampaignService svc(grid, options);
  if (resume) {
    const service::RecoveryReport report = svc.recover();
    std::cout << "recovery: "
              << (report.journal_found ? "journal found" : "no journal")
              << ", " << report.replayed_records << " records replayed";
    if (report.snapshot_used)
      std::cout << ", snapshot@" << report.snapshot_seq;
    if (report.torn_tail)
      std::cout << ", torn tail (" << report.dropped_bytes
                << " bytes dropped)";
    std::cout << ", clock at " << fmt_duration(report.resume_time) << "\n";
  }

  const std::vector<ServeEntry> entries = parse_campaigns(args.get("campaigns"));
  const std::size_t known = svc.campaign_ids().size();
  if (known > 0)
    std::cout << known << " campaigns already journaled, submitting "
              << (entries.size() > known ? entries.size() - known : 0)
              << " more\n";
  for (std::size_t i = known; i < entries.size(); ++i)
    (void)svc.submit(entries[i].spec, entries[i].at);

  const bool completed = svc.run();

  TableWriter table({"id", "owner", "w", "NSxNM", "status", "admitted",
                     "finished", "makespan"});
  for (const service::CampaignId id : svc.campaign_ids()) {
    const service::CampaignState& state = svc.campaign(id);
    const bool done = state.status == service::CampaignStatus::kCompleted;
    table.add_row({std::to_string(id), state.spec.owner,
                   fmt(state.spec.weight, 1),
                   std::to_string(state.spec.scenarios) + "x" +
                       std::to_string(state.spec.months),
                   to_string(state.status),
                   done || state.status == service::CampaignStatus::kRunning
                       ? fmt_duration(state.admit_time)
                       : "-",
                   done ? fmt_duration(state.finish_time) : "-",
                   done ? fmt_duration(state.makespan()) : "-"});
  }
  table.print(std::cout);
  std::cout << "\nservice clock: " << fmt_duration(svc.now()) << ", "
            << svc.lease_changes() << " lease changes, journal seq "
            << svc.journal_seq() << "\n";
  obs_session.finish();
  if (!completed) {
    std::cout << "service killed by --kill-after; rerun with --resume to "
                 "continue\n";
    return 3;
  }
  return 0;
}

int cmd_calibrate(const std::vector<std::string>& argv) {
  ArgParser args("oagrid_cli calibrate",
                 "Benchmark the real climate pipeline and emit a grid file");
  args.add_option("reps", "months timed per configuration", "2")
      .add_option("resources", "processor count for the emitted cluster", "32")
      .add_option("name", "cluster name in the emitted file", "this-machine");
  add_obs_options(args);
  args.parse(argv);
  const ObsSession obs_session(args);

  std::cerr << "calibrating (96x192 grid, " << args.get_int("reps")
            << " reps per G)...\n";
  const climate::CalibrationResult result = climate::calibrate_pipeline(
      climate::calibration_grade_params(),
      static_cast<int>(args.get_int("reps")));
  const platform::Cluster cluster = result.to_cluster(
      args.get("name"), static_cast<ProcCount>(args.get_int("resources")));
  platform::Grid grid;
  grid.add_cluster(cluster);
  platform::write_grid(std::cout, grid);
  obs_session.finish(std::cerr);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string usage =
      "usage: oagrid_cli "
      "<schedule|simulate|grid|serve|sweep|calibrate|dynamic|export> "
      "[options]\n"
      "       oagrid_cli <command> --help\n";
  if (argc < 2) {
    std::cerr << usage;
    return 2;
  }
  const std::string command = argv[1];
  std::vector<std::string> rest;
  bool help = false;
  for (int i = 2; i < argc; ++i) {
    rest.emplace_back(argv[i]);
    if (rest.back() == "--help") help = true;
  }

  try {
    if (command == "schedule") return cmd_schedule(rest);
    if (command == "simulate") return cmd_simulate(rest);
    if (command == "grid") return cmd_grid(rest);
    if (command == "serve") return cmd_serve(rest);
    if (command == "sweep") return cmd_sweep(rest);
    if (command == "calibrate") return cmd_calibrate(rest);
    if (command == "dynamic") return cmd_dynamic(rest);
    if (command == "export") return cmd_export(rest);
    std::cerr << "unknown command '" << command << "'\n" << usage;
    return 2;
  } catch (const std::exception& e) {
    // --help routes the usage text through the exception channel.
    std::cerr << (help ? "" : "error: ") << e.what() << "\n";
    return help ? 0 : 1;
  }
}
