#pragma once
/// \file lease.hpp
/// \brief Elastic, revocable processor leases carving a shared grid into
/// per-campaign allotments.
///
/// The LeaseManager answers one question, deterministically: given the set
/// of active campaigns (with fair-share weights and the clusters their
/// unfinished scenarios are pinned to), how many processors of each cluster
/// does each campaign hold right now?
///
/// Planning is weighted max-min (progressive filling) per cluster, with two
/// hard grid realities layered on top:
///  * floors — a campaign with unfinished scenarios pinned to a cluster can
///    be shrunk but never evicted below the cluster's minimum group size
///    (the paper's "a scenario cannot change location" rule: revoking the
///    last admissible group would strand its chains);
///  * granularity — a lease smaller than the minimum group size is useless,
///    so claimants that cannot reach it on a cluster are dropped there and
///    their processors re-offered (rather than leaking slivers).
///
/// The plan is a pure function of its inputs — the service journals *when*
/// lease changes applied, and recovery re-derives the same plans.

#include <vector>

#include "platform/grid.hpp"
#include "service/campaign.hpp"

namespace oagrid::service {

/// One campaign's current slice of one cluster.
struct Lease {
  CampaignId campaign = 0;
  ClusterId cluster = 0;
  ProcCount procs = 0;

  [[nodiscard]] bool operator==(const Lease&) const = default;
};

/// What one campaign brings to a planning round.
struct LeaseClaim {
  CampaignId campaign = 0;
  double weight = 1.0;
  /// (cluster, unfinished scenarios pinned there), at most one entry per
  /// cluster of the grid. Floors apply here.
  std::vector<std::pair<ClusterId, Count>> pinned;
  /// A newcomer (being admitted) may claim any cluster; its scenarios are
  /// assigned afterwards from the granted allotments.
  bool newcomer = false;
  /// Unfinished scenarios overall — caps a newcomer's useful allotment.
  Count unfinished_total = 0;

  [[nodiscard]] bool operator==(const LeaseClaim&) const = default;
};

class LeaseManager {
 public:
  explicit LeaseManager(const platform::Grid* grid) : grid_(grid) {}

  /// Deterministic weighted-fair-share plan over all clusters. Result is
  /// sorted by (campaign, cluster) and omits zero leases. Campaign ids must
  /// be distinct.
  [[nodiscard]] std::vector<Lease> plan(
      const std::vector<LeaseClaim>& claims) const;

  /// Whether a newcomer could be granted at least one admissible group on
  /// some cluster without violating any incumbent floor.
  [[nodiscard]] bool admissible(
      const std::vector<LeaseClaim>& incumbents) const;

 private:
  const platform::Grid* grid_;
};

}  // namespace oagrid::service
