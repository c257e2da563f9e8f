#pragma once
/// \file ensemble_sim.hpp
/// \brief Discrete-event execution of a GroupSchedule on one cluster.
///
/// Implements the paper's execution rule (§4.3): "The execution of
/// multiprocessor tasks is done by sorting the ready time of each group of
/// processors and when a group becomes ready, the month of the less advanced
/// simulation waiting is scheduled on this group." Post-processing tasks run
/// according to the schedule's PostPolicy:
///  * kPoolThenRetired — on the dedicated pool at any time, plus on the
///    processors of groups that have run their last main task;
///  * kAllAtEnd — only after every main task finished, on the whole cluster
///    (the pool's processors among them).
/// The event calendar carries mains and node faults only; posts feed
/// nothing back into main dispatch, so they are resolved off the calendar
/// as a FIFO multi-server queue (sim/post_pool.hpp).
///
/// The simulator is exact and deterministic; the closed-form model of
/// makespan_model.hpp is validated against it.

#include <cstdint>

#include "appmodel/ensemble.hpp"
#include "fault/failure.hpp"
#include "platform/cluster.hpp"
#include "sched/group_schedule.hpp"
#include "sched/heuristics.hpp"
#include "sim/trace.hpp"

namespace oagrid::sim {

/// Stochastic execution-time perturbations. The paper's evaluation is
/// deterministic (benchmarked durations); the real Grid'5000 runs it was
/// preparing are not. With a non-trivial model, every main/post duration is
/// multiplied by a log-normal-ish factor exp(N(0, jitter)), and each main
/// task independently fails with `failure_probability` (the month's output
/// is lost and the month re-runs — the restart-file recovery of the real
/// application). All draws are deterministic in `seed`: mains draw from the
/// seed's stream in dispatch order, posts from its first split() child in
/// arrival order, so no main draw depends on the post pool.
struct PerturbationModel {
  double duration_jitter = 0.0;      ///< stddev of ln(duration factor)
  double failure_probability = 0.0;  ///< per main-task execution
  std::uint64_t seed = 1;

  [[nodiscard]] bool active() const noexcept {
    return duration_jitter > 0.0 || failure_probability > 0.0;
  }
};

/// Node-failure injection for one cluster's DES run. Unlike PerturbationModel
/// (which fails individual task *executions*), this kills *node sets*: a
/// down group's in-flight month dies, the scenario rewinds to its last
/// k-month restart checkpoint, and the group stays unavailable until repair.
struct FaultOptions {
  const fault::FailureModel* model = nullptr;  ///< not owned; null = inactive
  ClusterId cluster = 0;  ///< which cluster's process this run draws from
  fault::RecoveryPolicy recovery = fault::RecoveryPolicy::kRescheduleInCluster;
  /// Restart granularity: a killed scenario rewinds months_done to the last
  /// multiple of this cadence (1 = the paper's monthly restart files).
  MonthIndex checkpoint_months = 1;
  /// Stall charged once to a migrated scenario's next month under
  /// kMigrateWithState — the time to re-stage its restart state, priced by
  /// net::NetworkModel at the call site.
  Seconds migrate_staging = 0.0;

  /// True when this run can actually see failures. An inactive FaultOptions
  /// leaves the simulator on the exact pre-fault code path (bit-identical
  /// results, no extra events).
  [[nodiscard]] bool active() const noexcept {
    return model != nullptr && model->cluster_active(cluster);
  }
};

struct SimOptions {
  /// Records every execution into SimResult::trace, the run's one record
  /// stream (its Chrome slices come from sim::export_sim_timeline).
  /// Aggregate counters/histograms flow into obs::metrics() after every run
  /// whenever obs::enabled(), trace or not — that path costs nothing per
  /// event.
  bool capture_trace = false;
  PerturbationModel perturbation;  ///< inactive by default (exact durations)
  FaultOptions fault;              ///< node failures; inactive by default

  /// Inter-month restart hand-off: simulated seconds a group stalls before
  /// each main task of month > 0, fetching the previous month's ~120 MB
  /// restart file ("data exchanges between two consecutive monthly
  /// simulations", §2). Price it with net::NetworkModel::transfer_time over
  /// the cluster's fabric. The default 0.0 reproduces the paper's free-data
  /// world bit for bit (the stall is added, and x + 0.0 == x).
  Seconds restart_handoff = 0.0;
};

struct SimResult {
  Seconds makespan = 0.0;
  Seconds main_phase_end = 0.0;  ///< completion of the last main task
  Count mains_executed = 0;  ///< successful completions, later rewinds too
  Count posts_executed = 0;
  Count retries = 0;  ///< failed main executions that had to re-run
  /// Calendar events executed: main completions, outages and repairs.
  std::size_t events = 0;
  /// Busy processor-seconds of the groups over makespan * allocated procs.
  double group_utilization = 0.0;
  fault::FaultStats fault;  ///< lost-work accounting; zeros without failures
  Trace trace;  ///< populated only when SimOptions::capture_trace
};

/// Runs the ensemble to completion. Throws on an invalid schedule.
[[nodiscard]] SimResult simulate_ensemble(const platform::Cluster& cluster,
                                          const sched::GroupSchedule& schedule,
                                          const appmodel::Ensemble& ensemble,
                                          const SimOptions& options = {});

/// Convenience: build the schedule with `heuristic` and simulate it.
[[nodiscard]] SimResult simulate_with_heuristic(
    const platform::Cluster& cluster, sched::Heuristic heuristic,
    const appmodel::Ensemble& ensemble, const SimOptions& options = {});

}  // namespace oagrid::sim
