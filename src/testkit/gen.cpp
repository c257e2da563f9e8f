#include "testkit/gen.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "common/rng.hpp"
#include "platform/profiles.hpp"

namespace oagrid::testkit {
namespace {

/// Random cluster with a *divisible* table (every T[G] an exact multiple of
/// TP) so the closed-form makespan model is exact on it — the same shape the
/// sim randomized-property tests use.
platform::Cluster divisible_cluster(int index, Rng& rng) {
  const Seconds tp = rng.uniform(5.0, 50.0);
  std::vector<Seconds> tg;
  Count multiple = rng.uniform_int(20, 60);
  for (int i = 0; i < kNumGroupSizes; ++i) {
    tg.push_back(tp * static_cast<double>(multiple));
    multiple -= rng.uniform_int(0, 4);  // non-increasing, random plateaus
    multiple = std::max<Count>(multiple, 2);
  }
  const auto r = static_cast<ProcCount>(rng.uniform_int(11, 60));
  return platform::Cluster("div" + std::to_string(index), r, kMinGroupSize,
                           std::move(tg), tp);
}

platform::Grid make_grid(const CaseSpec& spec, Rng& rng) {
  if (!spec.divisible_tables)
    return platform::make_random_grid(spec.clusters, 11, 60, rng);
  std::vector<platform::Cluster> clusters;
  clusters.reserve(static_cast<std::size_t>(spec.clusters));
  for (int c = 0; c < spec.clusters; ++c)
    clusters.push_back(divisible_cluster(c, rng));
  return platform::Grid(std::move(clusters));
}

net::LinkSpec random_link(Rng& rng) {
  net::LinkSpec spec;
  spec.bandwidth_mbps =
      rng.uniform() < 0.15 ? net::kInfiniteBandwidth : rng.uniform(20.0, 800.0);
  spec.latency = rng.uniform() < 0.25 ? 0.0 : rng.uniform(0.0005, 0.05);
  return spec;
}

net::NetworkModel make_network(const CaseSpec& spec, Rng& rng) {
  const int n = spec.clusters;
  switch (spec.net_kind) {
    case 1:
      return net::free_network(n);
    case 2:
      return net::uniform_network(
          n, net::LinkSpec{rng.uniform(50.0, 500.0), rng.uniform(0.0, 0.02)},
          net::LinkSpec{rng.uniform(500.0, 2000.0), rng.uniform(0.0, 0.001)});
    case 3:
      return net::renater_network(n);
    case 4: {
      net::NetworkModel model(n);
      model.set_default_inter(random_link(rng));
      model.set_default_intra(random_link(rng));
      for (ClusterId a = 0; a < n; ++a) {
        for (ClusterId b = a + 1; b < n; ++b)
          if (rng.uniform() < 0.4) model.set_link(a, b, random_link(rng));
        if (rng.uniform() < 0.3) model.set_intra(a, random_link(rng));
      }
      return model;
    }
    default:
      return net::NetworkModel{};  // no network attached
  }
}

/// One stochastic-or-trace process on cluster `c`. Timescales are anchored
/// to the cluster's own main-task duration so failures actually land inside
/// the simulated horizon for every generated platform.
void add_process(fault::FailureModel& model, const platform::Grid& grid,
                 ClusterId c, int kind, Rng& rng) {
  const Seconds tg = grid.cluster(c).main_time(kMinGroupSize);
  switch (kind) {
    case 1:
      model.set_exponential(c, tg * rng.uniform(1.0, 20.0),
                            tg * rng.uniform(0.05, 1.0));
      break;
    case 2:
      model.set_weibull(c, rng.uniform(0.5, 1.5), tg * rng.uniform(1.0, 20.0),
                        tg * rng.uniform(0.05, 1.0));
      break;
    default: {
      const int windows = static_cast<int>(rng.uniform_int(1, 4));
      for (int w = 0; w < windows; ++w)
        model.add_outage(c, tg * rng.uniform(0.0, 30.0),
                         tg * rng.uniform(0.1, 3.0));
      break;
    }
  }
}

fault::FailureModel make_failures(const CaseSpec& spec,
                                  const platform::Grid& grid, Rng& rng) {
  if (spec.fault_kind == 0) return fault::FailureModel{};
  fault::FailureModel model(spec.clusters);
  model.set_seed(rng() | 1);
  int down_budget = spec.clusters - 1;  // never kill the whole grid
  for (ClusterId c = 0; c < spec.clusters; ++c) {
    if (spec.fault_kind == 4) {
      const int roll = static_cast<int>(rng.uniform_int(0, 4));
      if (roll == 0 && down_budget > 0) {
        model.set_down(c);
        --down_budget;
      } else if (roll <= 3) {
        add_process(model, grid, c, 1 + roll % 3, rng);
      }  // roll == 4 with no budget: cluster stays clean
    } else if (rng.uniform() < 0.8) {
      add_process(model, grid, c, spec.fault_kind, rng);
    }
  }
  return model;
}

std::vector<ServiceEntry> make_schedule(const CaseSpec& spec, Rng& rng) {
  static const char* const kOwners[] = {"alice", "bob", "carol", "dave"};
  std::vector<ServiceEntry> schedule;
  Seconds at = 0.0;
  for (int i = 0; i < spec.campaigns; ++i) {
    ServiceEntry entry;
    entry.spec.owner = kOwners[rng.uniform_int(0, 3)];
    entry.spec.weight = rng.uniform(0.5, 3.0);
    entry.spec.scenarios = rng.uniform_int(1, 4);
    entry.spec.months = rng.uniform_int(1, 6);
    at += rng.uniform() < 0.4 ? 0.0 : rng.uniform(0.0, 5000.0);
    entry.at = at;
    schedule.push_back(std::move(entry));
  }
  return schedule;
}

}  // namespace

Case materialize(const CaseSpec& raw) {
  CaseSpec spec = raw;
  spec.clamp();

  // One child stream per subsystem: shrinking the network knob must not
  // reshuffle the platform or the failure draws.
  Rng root(spec.seed);
  Rng grid_rng = root.split();
  Rng net_rng = root.split();
  Rng fault_rng = root.split();
  Rng service_rng = root.split();

  Case world;
  world.spec = spec;
  world.grid = make_grid(spec, grid_rng);
  world.ensemble = appmodel::Ensemble{spec.scenarios, spec.months};
  world.heuristic = static_cast<sched::Heuristic>(spec.heuristic);

  world.network = make_network(spec, net_rng);
  if (world.network.cluster_count() > 0) {
    world.stage_mb = net_rng.uniform(0.0, 500.0);
    world.collect_mb = net_rng.uniform(0.0, 500.0);
  }

  world.failures = make_failures(spec, world.grid, fault_rng);
  world.recovery = static_cast<fault::RecoveryPolicy>(spec.recovery);
  world.checkpoint_months =
      std::min<MonthIndex>(spec.checkpoint_months,
                           static_cast<MonthIndex>(spec.months));
  world.checkpoint_months = std::max<MonthIndex>(world.checkpoint_months, 1);

  world.schedule = make_schedule(spec, service_rng);
  return world;
}

std::vector<net::TransferRequest> random_transfers(const CaseSpec& spec,
                                                   int clusters) {
  Rng rng(spec.seed ^ 0x7261776E73666572ull);  // distinct stream
  const long long count =
      rng.uniform_int(1, std::max<long long>(2, 4 * clusters));
  std::vector<net::TransferRequest> requests;
  requests.reserve(static_cast<std::size_t>(count));
  for (long long i = 0; i < count; ++i) {
    net::TransferRequest request;
    request.src = static_cast<ClusterId>(rng.uniform_int(0, clusters - 1));
    request.dst = static_cast<ClusterId>(rng.uniform_int(0, clusters - 1));
    request.size_mb = rng.uniform(0.0, 2000.0);
    request.start = rng.uniform(0.0, 1000.0);
    requests.push_back(request);
  }
  return requests;
}

}  // namespace oagrid::testkit
