// Pins the bits of the discrete-event simulator: an FNV-1a digest over every
// SimResult field, and every trace entry of the traced runs, across a fixed
// matrix of clusters, heuristics, ensembles and fault scenarios. A change to
// the DES's internals must leave every bit of every answer where it was, so
// this test passes unedited across such a change.
//
// The matrix avoids duration jitter and stochastic outages: they go through
// std::exp, std::log and std::cos, whose last bits may differ between C
// libraries. Task failures (uniform draws), the restart hand-off and
// explicit outage windows are pure IEEE-754 arithmetic.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "common/hash.hpp"
#include "fault/failure.hpp"
#include "platform/profiles.hpp"
#include "sched/heuristics.hpp"
#include "sim/ensemble_sim.hpp"

namespace oagrid::sim {
namespace {

void hash_result(Fnv1a& h, const SimResult& r) {
  h.f64(r.makespan);
  h.f64(r.main_phase_end);
  h.i64(r.mains_executed);
  h.i64(r.posts_executed);
  h.i64(r.retries);
  h.u64(r.events);
  h.f64(r.group_utilization);
  h.i64(r.fault.outages);
  h.i64(r.fault.kills);
  h.i64(r.fault.rewound_months);
  h.f64(r.fault.downtime_seconds);
  h.f64(r.fault.lost_seconds);
  h.u64(r.trace.entries().size());
  for (const TraceEntry& e : r.trace.entries()) {
    h.i64(static_cast<std::int64_t>(e.unit_kind));
    h.i64(e.unit);
    h.i64(e.scenario);
    h.i64(e.month);
    h.f64(e.start);
    h.f64(e.end);
    h.i64(static_cast<std::int64_t>(e.outcome));
  }
}

/// Cluster-wide outage windows, the last one permanent when `permanent`.
fault::FailureModel outage_windows(bool permanent) {
  fault::FailureModel model(1);
  model.add_outage(0, 2500.5, 3000.0);
  model.add_outage(0, 4000.0, 900.0);  // opens while the first is down
  model.add_outage(0, 19000.25, 1.0);
  model.add_outage(0, 60000.0, 7200.0);
  model.add_outage(0, 150000.0, 45.5);
  if (permanent) model.add_outage(0, 300000.0, kInfiniteTime);
  return model;
}

/// Digest of every run on one built-in profile.
std::uint64_t profile_digest(int profile) {
  constexpr std::array<ProcCount, 3> kResources{9, 34, 120};
  constexpr std::array<Count, 3> kScenarios{1, 3, 10};
  constexpr std::array<sched::Heuristic, 4> kHeuristics{
      sched::Heuristic::kBasic, sched::Heuristic::kRedistribute,
      sched::Heuristic::kAllForMain, sched::Heuristic::kKnapsack};
  constexpr std::array<fault::RecoveryPolicy, 3> kPolicies{
      fault::RecoveryPolicy::kWaitForRepair,
      fault::RecoveryPolicy::kRescheduleInCluster,
      fault::RecoveryPolicy::kMigrateWithState};
  const fault::FailureModel transient = outage_windows(false);
  const fault::FailureModel permanent = outage_windows(true);

  Fnv1a h;
  std::uint64_t seed = 1;
  for (const ProcCount resources : kResources) {
    const auto cluster = platform::make_builtin_cluster(profile, resources);
    for (const sched::Heuristic heuristic : kHeuristics) {
      for (const Count scenarios : kScenarios) {
        const appmodel::Ensemble ensemble{scenarios, 120};
        const auto schedule = sched::make_schedule(heuristic, cluster, ensemble);
        std::vector<SimOptions> variants;
        for (const Seconds handoff : {0.0, 150.0}) {
          for (const double failures : {0.0, 0.2}) {
            SimOptions options;
            options.restart_handoff = handoff;
            options.perturbation.failure_probability = failures;
            variants.push_back(options);
          }
        }
        for (std::size_t p = 0; p < kPolicies.size(); ++p) {
          for (const MonthIndex cadence : {1, 3}) {
            SimOptions options;
            options.fault.model = cadence == 3 ? &permanent : &transient;
            options.fault.recovery = kPolicies[p];
            options.fault.checkpoint_months = cadence;
            options.fault.migrate_staging = 321.0;
            options.restart_handoff = p % 2 == 0 ? 0.0 : 150.0;
            options.perturbation.failure_probability = cadence == 1 ? 0.0 : 0.2;
            variants.push_back(options);
          }
        }
        for (SimOptions& options : variants) {
          options.perturbation.seed = seed++;
          for (const bool trace : {false, true}) {
            options.capture_trace = trace;
            hash_result(h, simulate_ensemble(cluster, schedule, ensemble, options));
          }
        }
      }
    }
  }
  return h.state;
}

TEST(DesDigest, EveryResultBitIsPinned) {
  constexpr std::array<std::uint64_t, 5> kExpected{
      0x4b402acc1ca8fe42ULL, 0x0f75bf82cc5abc6aULL, 0xcef7b3998b241d9cULL,
      0x35c78b1be79b61a2ULL, 0x385cd7fa611b3485ULL};
  for (int profile = 0; profile < 5; ++profile) {
    const std::uint64_t digest = profile_digest(profile);
    EXPECT_EQ(digest, kExpected[static_cast<std::size_t>(profile)])
        << "profile " << profile << " digest 0x" << std::hex << digest;
  }
}

}  // namespace
}  // namespace oagrid::sim
