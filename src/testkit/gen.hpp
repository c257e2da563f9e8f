#pragma once
/// \file gen.hpp
/// \brief Materializes a CaseSpec into a full simulation world.
///
/// materialize() is a pure function: the same spec always produces the same
/// grid, network, failure model and service schedule, byte for byte. All
/// entropy comes from spec.seed through split() child streams, one per
/// subsystem, so shrinking one knob (say dropping the network) does not
/// reshuffle the draws of every other subsystem — the shrunk case stays as
/// close as possible to the original failing world.
///
/// Generation guards the harness against known non-termination traps:
///  * at least one cluster always stays failure-free-or-repairable (an
///    all-down grid would never finish a campaign);
///  * permanently-down clusters only appear in the mixed failure kind, never
///    all of them, and grid placement charges keep work off them.

#include <cstdint>
#include <vector>

#include "appmodel/ensemble.hpp"
#include "fault/failure.hpp"
#include "net/fairshare.hpp"
#include "net/network.hpp"
#include "platform/grid.hpp"
#include "sched/heuristics.hpp"
#include "service/campaign.hpp"
#include "testkit/spec.hpp"

namespace oagrid::testkit {

/// One scheduled service submission.
struct ServiceEntry {
  service::CampaignSpec spec;
  Seconds at = 0.0;
};

/// A fully materialized test world. Everything the invariant checkers need,
/// derived from the spec alone.
struct Case {
  CaseSpec spec;

  platform::Grid grid;
  appmodel::Ensemble ensemble;
  sched::Heuristic heuristic = sched::Heuristic::kKnapsack;

  /// cluster_count() == 0 when the spec attaches no network.
  net::NetworkModel network;
  double stage_mb = 0.0;    ///< staged home -> cluster per scenario
  double collect_mb = 0.0;  ///< shipped cluster -> home per scenario

  /// cluster_count() == 0 when the spec attaches no failures.
  fault::FailureModel failures;
  fault::RecoveryPolicy recovery = fault::RecoveryPolicy::kRescheduleInCluster;
  MonthIndex checkpoint_months = 1;

  /// Service-world schedule (empty when spec.campaigns == 0), `at` values
  /// non-decreasing as CampaignService::submit requires.
  std::vector<ServiceEntry> schedule;
};

/// Builds the world. Deterministic; never throws for a clamped spec.
[[nodiscard]] Case materialize(const CaseSpec& spec);

/// A random batch of transfers over `clusters` nodes — the net-conservation
/// invariant's workload, exposed so tests can probe it directly.
[[nodiscard]] std::vector<net::TransferRequest> random_transfers(
    const CaseSpec& spec, int clusters);

}  // namespace oagrid::testkit
