/// \file bench_service.cpp
/// \brief The campaign service as a consolidation study: several tenants'
/// campaigns (the paper's "around ten scenarios of 150 years" per
/// climatologist, scaled down) share one grid through the service's
/// admission queue and elastic leases, instead of each waiting for a
/// dedicated reservation. Compares the queue policies on wait/makespan/
/// stretch, then prices the crash-recovery machinery: journal records,
/// snapshots, and verified-replay recovery time, all straight from the obs
/// metrics the service emits.
///
/// The narrative tables print first; the registered google-benchmark
/// microbenchmarks (full shared run, journal recovery, failure-aware
/// estimation) run after them.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <filesystem>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "fault/failure.hpp"
#include "obs/obs.hpp"
#include "platform/profiles.hpp"
#include "service/service.hpp"

using namespace oagrid;
using service::CampaignService;
using service::CampaignSpec;
using service::ServiceOptions;

namespace {

struct Tenant {
  CampaignSpec spec;
  Seconds at = 0.0;
};

std::vector<Tenant> tenants() {
  const auto spec = [](const std::string& owner, double weight, Count ns,
                       Count nm) {
    CampaignSpec s;
    s.owner = owner;
    s.weight = weight;
    s.scenarios = ns;
    s.months = nm;
    return s;
  };
  return {{spec("alice", 1.0, 10, 24), 0.0},
          {spec("bob", 2.0, 8, 24), 0.0},
          {spec("carol", 1.0, 6, 18), 3600.0},
          {spec("alice", 1.0, 4, 30), 7200.0},
          {spec("dave", 1.0, 8, 12), 10800.0},
          {spec("bob", 2.0, 5, 20), 14400.0}};
}

platform::Grid bench_grid() { return platform::make_builtin_grid(25).prefix(3); }

std::unique_ptr<CampaignService> run_all(ServiceOptions options) {
  auto svc = std::make_unique<CampaignService>(bench_grid(), options);
  for (const Tenant& t : tenants()) (void)svc->submit(t.spec, t.at);
  if (!svc->run()) throw std::runtime_error("bench service was killed?");
  return svc;
}

/// Makespan of one campaign holding the whole grid alone (the dedicated-
/// reservation baseline every sharing run is stretched against).
std::vector<Seconds> alone_makespans() {
  std::vector<Seconds> result;
  for (const Tenant& t : tenants()) {
    CampaignService svc(bench_grid(), ServiceOptions{});
    const auto id = svc.submit(t.spec, 0.0);
    if (!svc.run()) throw std::runtime_error("bench service was killed?");
    result.push_back(svc.campaign(id).makespan());
  }
  return result;
}

void print_tables() {
  bench::banner(
      "Campaign service (multi-tenant sharing of the paper's grid)",
      "queue policies vs dedicated reservations; journal/recovery cost");

  const std::vector<Seconds> alone = alone_makespans();
  Seconds alone_serial = 0;
  for (const Seconds s : alone) alone_serial += s;
  std::cout << "workload: " << tenants().size()
            << " campaigns, 4 owners, 3 clusters x 25 procs; run serially "
               "on dedicated reservations they need "
            << fmt_duration(alone_serial) << "\n\n";

  TableWriter table({"policy", "grid span", "vs serial %", "mean wait",
                     "mean makespan", "mean stretch", "lease changes"});
  for (const service::QueuePolicy policy :
       {service::QueuePolicy::kFifo, service::QueuePolicy::kWeightedFairShare,
        service::QueuePolicy::kShortestRemaining}) {
    ServiceOptions options;
    options.policy = policy;
    options.max_active = 2;  // tight enough that admission order matters
    const auto svc = run_all(options);

    Seconds wait = 0, makespan = 0;
    double stretch = 0;
    const auto ids = svc->campaign_ids();
    for (std::size_t i = 0; i < ids.size(); ++i) {
      const service::CampaignState& state = svc->campaign(ids[i]);
      wait += state.admit_time - state.submit_time;
      makespan += state.makespan();
      stretch += state.makespan() / alone[i];
    }
    const auto n = static_cast<double>(ids.size());
    table.add_row({to_string(policy), fmt_duration(svc->now()),
                   fmt(bench::gain_percent(alone_serial, svc->now()), 1),
                   fmt_duration(wait / n), fmt_duration(makespan / n),
                   fmt(stretch / n, 2), std::to_string(svc->lease_changes())});
  }
  table.print(std::cout);
  std::cout << "\nReading: sharing the grid beats serial dedicated "
               "reservations on total span; fair share trades a little of "
               "the heavy owners' stretch for shorter waits of the light "
               "ones, srmf minimizes mean makespan.\n\n";

  // --- the price of durability: journal, snapshots, verified replay -------
  obs::set_enabled(true);
  obs::reset();
  const std::string dir =
      (std::filesystem::temp_directory_path() / "oagrid_bench_service")
          .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  ServiceOptions durable;
  durable.policy = service::QueuePolicy::kWeightedFairShare;
  durable.max_active = 2;
  durable.journal_dir = dir;
  durable.snapshot_every = 64;
  const auto svc = run_all(durable);
  const auto journal_bytes =
      std::filesystem::file_size(CampaignService::journal_path(dir));

  CampaignService recovered(bench_grid(), durable);
  const service::RecoveryReport report = recovered.recover();

  TableWriter durability({"quantity", "value"});
  durability.add_row({"journal records", std::to_string(svc->journal_seq())});
  durability.add_row(
      {"journal bytes (after compaction)", std::to_string(journal_bytes)});
  durability.add_row(
      {"records replayed on recovery", std::to_string(report.replayed_records)});
  durability.add_row({"snapshot used",
                      report.snapshot_used
                          ? "yes (seq " + std::to_string(report.snapshot_seq) + ")"
                          : "no"});
  durability.print(std::cout);

  std::cout << "\n== service metrics (shared fair-share run + recovery) ==\n";
  obs::write_metrics_table(std::cout, obs::metrics());
  std::filesystem::remove_all(dir);
  obs::set_enabled(false);
  std::cout << "\n";
}

void BM_ServiceSharedRun(benchmark::State& state) {
  // One full multi-tenant service lifetime: admission, elastic leases,
  // placement decisions, and the simulated executions.
  ServiceOptions options;
  options.policy = service::QueuePolicy::kWeightedFairShare;
  options.max_active = 2;
  std::int64_t lease_changes = 0;
  for (auto _ : state) {
    const auto svc = run_all(options);
    lease_changes = static_cast<std::int64_t>(svc->lease_changes());
    benchmark::DoNotOptimize(svc->now());
  }
  state.counters["lease_changes"] = static_cast<double>(lease_changes);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(tenants().size()));
}
BENCHMARK(BM_ServiceSharedRun);

void BM_ServiceRecovery(benchmark::State& state) {
  // Verified journal replay: what a crashed service pays to come back.
  const std::string dir =
      (std::filesystem::temp_directory_path() / "oagrid_bench_service_replay")
          .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  ServiceOptions durable;
  durable.policy = service::QueuePolicy::kWeightedFairShare;
  durable.max_active = 2;
  durable.journal_dir = dir;
  (void)run_all(durable);

  std::int64_t replayed = 0;
  for (auto _ : state) {
    CampaignService recovered(bench_grid(), durable);
    const service::RecoveryReport report = recovered.recover();
    replayed = static_cast<std::int64_t>(report.replayed_records);
    benchmark::DoNotOptimize(report.resume_time);
  }
  state.counters["replayed_records"] = static_cast<double>(replayed);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          replayed);
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_ServiceRecovery);

void BM_ServiceHighTenancy(benchmark::State& state) {
  // Control-plane throughput at production tenancy: N small campaigns from
  // 16 owners funnel through admission, the lease planner and the
  // dispatcher. No journal directory — this prices the in-memory decision
  // loop (the journal's batched cost is measured by BM_ServiceSharedRun and
  // the durability tables). Two sizes: the loop should be linear in N, so
  // the per-campaign cost (1 / campaigns_per_second) must not diverge
  // between them.
  const auto kCampaigns = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kOwners = 16;
  std::vector<Tenant> load;
  load.reserve(kCampaigns);
  for (std::size_t i = 0; i < kCampaigns; ++i) {
    Tenant t;
    t.spec.owner = "tenant-" + std::to_string(i % kOwners);
    t.spec.weight = 1.0 + static_cast<double>(i % 3);
    t.spec.scenarios = 1 + static_cast<Count>(i % 2);
    t.spec.months = 1 + static_cast<Count>(i % 2) * 2;
    t.at = static_cast<Seconds>(i) * 30.0;
    load.push_back(std::move(t));
  }

  ServiceOptions options;
  options.policy = service::QueuePolicy::kWeightedFairShare;
  options.max_active = 16;
  options.queue_capacity = kCampaigns + 1;
  std::int64_t months = 0;
  for (auto _ : state) {
    CampaignService svc(bench_grid(), options);
    for (const Tenant& t : load) (void)svc.submit(t.spec, t.at);
    if (!svc.run()) throw std::runtime_error("bench service was killed?");
    std::int64_t done = 0;
    for (const service::CampaignId id : svc.campaign_ids())
      done += static_cast<std::int64_t>(svc.campaign(id).months_done);
    months = done;
    benchmark::DoNotOptimize(svc.now());
  }
  state.counters["months"] = static_cast<double>(months);
  state.counters["campaigns_per_second"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(kCampaigns),
      benchmark::Counter::kIsRate);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kCampaigns));
}
BENCHMARK(BM_ServiceHighTenancy)
    ->Arg(1000)
    ->Arg(5000)
    ->Unit(benchmark::kMillisecond);

void BM_FailureAwareEstimation(benchmark::State& state) {
  // The FailureAwareEstimator decorator on the analytic backend: the
  // per-admission cost of folding failure expectations into lease sizing.
  const platform::Grid grid = bench_grid();
  service::AnalyticEstimator analytic;
  service::FailureAwareEstimator estimator(
      analytic, grid,
      fault::FailureModel::uniform_exponential(grid.cluster_count(), 40000.0,
                                               2000.0),
      3);
  for (auto _ : state)
    for (ClusterId c = 0; c < grid.cluster_count(); ++c)
      benchmark::DoNotOptimize(
          estimator.vector(grid.cluster(c), 10, 24, sched::Heuristic::kKnapsack));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          grid.cluster_count());
}
BENCHMARK(BM_FailureAwareEstimation);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  print_tables();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
