#include "service/lease.hpp"

#include <algorithm>
#include <cassert>

namespace oagrid::service {
namespace {

/// Per-cluster planning state for one claimant.
struct Claimant {
  CampaignId campaign = 0;
  double weight = 1.0;
  ProcCount assigned = 0;
  ProcCount floor = 0;    ///< pinned claimants keep at least min_group
  ProcCount cap = 0;      ///< no point leasing beyond max_group * scenarios
  bool dropped = false;

  [[nodiscard]] double load() const noexcept {
    return static_cast<double>(assigned) / weight;
  }
};

/// `claim` on `cluster`, with `unfinished_here` of its scenarios pinned
/// there (0 for a newcomer's unpinned cluster).
Claimant claimant_of(const platform::Cluster& cluster, const LeaseClaim& claim,
                     Count unfinished_here) {
  Claimant claimant;
  claimant.campaign = claim.campaign;
  claimant.weight = claim.weight;
  claimant.floor = unfinished_here > 0 ? cluster.min_group() : 0;
  const Count useful =
      unfinished_here > 0 ? unfinished_here : claim.unfinished_total;
  claimant.cap = static_cast<ProcCount>(
      std::min<Count>(cluster.resources(), cluster.max_group() * useful));
  claimant.assigned = claimant.floor;
  return claimant;
}

/// Progressive filling: hand out `procs` one at a time, each to the active
/// claimant with the smallest weight-normalized allotment that still has cap
/// headroom (ties to the lower campaign id). Weighted max-min fairness,
/// deterministic by construction.
void fill(std::vector<Claimant>& claimants, ProcCount procs) {
  while (procs > 0) {
    Claimant* best = nullptr;
    for (Claimant& c : claimants) {
      if (c.dropped || c.assigned >= c.cap) continue;
      if (best == nullptr || c.load() < best->load() ||
          (c.load() == best->load() && c.campaign < best->campaign))
        best = &c;
    }
    if (best == nullptr) break;  // everyone capped: leftover procs idle
    ++best->assigned;
    --procs;
  }
}

}  // namespace

std::vector<Lease> LeaseManager::plan(
    const std::vector<LeaseClaim>& claims) const {
  // One pass over the claims builds every cluster's claimant list, in claim
  // order: an incumbent joins the clusters it is pinned to, a newcomer
  // joins every cluster.
  std::vector<std::vector<Claimant>> by_cluster(
      static_cast<std::size_t>(grid_->cluster_count()));
  for (const LeaseClaim& claim : claims) {
    if (!claim.newcomer) {
      for (const auto& [c, count] : claim.pinned)
        if (count > 0)
          by_cluster[static_cast<std::size_t>(c)].push_back(
              claimant_of(grid_->cluster(c), claim, count));
      continue;
    }
    for (ClusterId c = 0; c < grid_->cluster_count(); ++c) {
      Count unfinished_here = 0;
      for (const auto& [pinned_cluster, count] : claim.pinned)
        if (pinned_cluster == c) unfinished_here = count;
      by_cluster[static_cast<std::size_t>(c)].push_back(
          claimant_of(grid_->cluster(c), claim, unfinished_here));
    }
  }

  std::vector<Lease> leases;
  for (ClusterId c = 0; c < grid_->cluster_count(); ++c) {
    std::vector<Claimant>& claimants = by_cluster[static_cast<std::size_t>(c)];
    if (claimants.empty()) continue;
    const platform::Cluster& cluster = grid_->cluster(c);
    const ProcCount gmin = cluster.min_group();

    ProcCount floor_total = 0;
    for (const Claimant& cl : claimants) floor_total += cl.floor;
    // The admission invariant (every pinned campaign was granted >= gmin
    // when its scenarios were placed, and pins only ever shrink) guarantees
    // the floors fit.
    assert(floor_total <= cluster.resources());
    fill(claimants, cluster.resources() - floor_total);

    // Drop claimants stuck below the minimum useful lease, newest first,
    // re-offering their processors — one at a time, because a single drop
    // can push another claimant over the threshold.
    for (;;) {
      Claimant* victim = nullptr;
      for (Claimant& cl : claimants) {
        if (cl.dropped || cl.floor > 0) continue;  // pinned: never evicted
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
      if (cl.assigned > 0)
        leases.push_back({cl.campaign, c, cl.assigned});
  }

  std::sort(leases.begin(), leases.end(), [](const Lease& a, const Lease& b) {
    return a.campaign != b.campaign ? a.campaign < b.campaign
                                    : a.cluster < b.cluster;
  });
  return leases;
}

bool LeaseManager::admissible(
    const std::vector<LeaseClaim>& incumbents) const {
  for (ClusterId c = 0; c < grid_->cluster_count(); ++c) {
    const platform::Cluster& cluster = grid_->cluster(c);
    ProcCount floors = 0;
    for (const LeaseClaim& claim : incumbents)
      for (const auto& [pinned_cluster, count] : claim.pinned)
        if (pinned_cluster == c && count > 0) floors += cluster.min_group();
    if (cluster.resources() - floors >= cluster.min_group()) return true;
  }
  return false;
}

}  // namespace oagrid::service
