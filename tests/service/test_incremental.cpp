/// \file test_incremental.cpp
/// \brief The incremental control-plane bookkeeping is an *exact*
/// optimization: claims, plans, admissibility, admission order and dispatch
/// coverage must equal a full recompute on every tick, for any workload.
/// These property tests drive randomized campaign mixes through the service
/// with the built-in cross-check (the full recompute as oracle) on and off,
/// and require identical outcomes and identical journal bytes.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "platform/profiles.hpp"
#include "service/journal.hpp"
#include "service/service.hpp"

namespace oagrid::service {
namespace {

namespace fs = std::filesystem;

std::string temp_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

platform::Grid test_grid() {
  std::vector<platform::Cluster> clusters;
  clusters.push_back(platform::make_builtin_cluster(0, 24));
  clusters.push_back(platform::make_builtin_cluster(1, 16));
  clusters.push_back(platform::make_builtin_cluster(2, 20));
  return platform::Grid(std::move(clusters));
}

struct Entry {
  CampaignSpec spec;
  Seconds at = 0.0;
};

/// Randomized multi-tenant workload: a handful of owners with mixed
/// weights, sizes and staggered arrivals, sized so admission, queueing,
/// lease churn and retirement all occur.
std::vector<Entry> random_workload(std::uint64_t seed) {
  Rng rng(seed);
  const Count n = rng.uniform_int(6, 14);
  std::vector<Entry> entries;
  Seconds at = 0.0;
  for (Count i = 0; i < n; ++i) {
    Entry entry;
    entry.spec.owner = "owner" + std::to_string(rng.uniform_int(0, 3));
    entry.spec.weight = 0.5 + 0.5 * static_cast<double>(rng.uniform_int(1, 4));
    entry.spec.scenarios = rng.uniform_int(1, 5);
    entry.spec.months = rng.uniform_int(1, 6);
    at += static_cast<double>(rng.uniform_int(0, 4000));
    entry.at = at;
    entries.push_back(std::move(entry));
  }
  return entries;
}

struct Final {
  std::string status;
  Seconds admit_time = 0.0;
  Seconds finish_time = 0.0;
  Count months_done = 0;
  std::vector<MonthIndex> frontier;
  std::vector<ClusterId> assignment;
  bool operator==(const Final&) const = default;
};

std::map<CampaignId, Final> capture(const CampaignService& service) {
  std::map<CampaignId, Final> out;
  for (const CampaignId id : service.campaign_ids()) {
    const CampaignState& state = service.campaign(id);
    out[id] = Final{to_string(state.status), state.admit_time,
                    state.finish_time,       state.months_done,
                    state.frontier,          state.assignment};
  }
  return out;
}

struct RunResult {
  std::map<CampaignId, Final> finals;
  std::string journal_bytes;
  std::uint64_t plan_reuse = 0;
};

RunResult run_workload(const std::vector<Entry>& entries, QueuePolicy policy,
                       const std::string& dir, bool verify_incremental) {
  ServiceOptions options;
  options.policy = policy;
  options.max_active = 3;
  options.queue_capacity = 8;  // small enough that rejections happen too
  options.journal_dir = dir;
  options.verify_incremental = verify_incremental;
  CampaignService service(test_grid(), std::move(options));
  for (const Entry& entry : entries)
    (void)service.submit(entry.spec, entry.at);
  EXPECT_TRUE(service.run());
  RunResult result;
  result.finals = capture(service);
  result.journal_bytes = read_file(CampaignService::journal_path(dir));
  result.plan_reuse = service.plan_reuse();
  return result;
}

constexpr QueuePolicy kPolicies[] = {QueuePolicy::kFifo,
                                     QueuePolicy::kWeightedFairShare,
                                     QueuePolicy::kShortestRemaining};

// The core property: with verify_incremental on, every incremental claim
// set, cached plan, admissibility answer, admission pick and dispatch scan
// is checked against a full recompute inside the service — any divergence
// throws and fails the run. Randomized over seeds and all three policies.
TEST(Incremental, CrossCheckHoldsOverRandomizedWorkloads) {
  std::map<QueuePolicy, std::uint64_t> reuse;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const std::vector<Entry> entries = random_workload(seed);
    for (const QueuePolicy policy : kPolicies) {
      const std::string dir =
          temp_dir("incr-verify-" + std::to_string(seed) + "-" +
                   std::string(to_string(policy)));
      const RunResult result =
          run_workload(entries, policy, dir, /*verify_incremental=*/true);
      reuse[policy] += result.plan_reuse;
    }
  }
  // Plans are reused when a rebalance admits a waiting campaign; individual
  // workloads may never queue anyone, but across the seeds every policy must
  // exercise the cache path (and thus its reuse-time cross-check above).
  for (const QueuePolicy policy : kPolicies)
    EXPECT_GT(reuse[policy], 0u) << to_string(policy);
}

// The cross-check only observes: a run with it armed (every cached answer
// recomputed in full) and a plain run must be identical — same outcomes,
// same journal bytes, for every seed and policy.
TEST(Incremental, MatchesFullRecomputeBitForBit) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const std::vector<Entry> entries = random_workload(seed);
    for (const QueuePolicy policy : kPolicies) {
      const std::string tag =
          std::to_string(seed) + "-" + std::string(to_string(policy));
      const RunResult fast =
          run_workload(entries, policy, temp_dir("incr-fast-" + tag),
                       /*verify_incremental=*/false);
      const RunResult checked =
          run_workload(entries, policy, temp_dir("incr-checked-" + tag),
                       /*verify_incremental=*/true);
      ASSERT_EQ(fast.finals, checked.finals) << "seed " << seed;
      ASSERT_EQ(fast.journal_bytes, checked.journal_bytes) << "seed " << seed;
    }
  }
}

// A long fair-share lifetime whose owners repeat a few weights, so the
// admission index holds multi-member (owner, weight) classes that are
// re-keyed, drained and reopened thousands of times. The cross-check
// compares every admission pick against the full stable sort.
TEST(Incremental, CrossCheckHoldsOverALongFairShareLifetime) {
  constexpr std::size_t kCampaigns = 2000;
  constexpr std::size_t kOwners = 8;
  ServiceOptions options;
  options.policy = QueuePolicy::kWeightedFairShare;
  options.max_active = 4;
  options.queue_capacity = kCampaigns;
  options.verify_incremental = true;
  CampaignService service(test_grid(), std::move(options));
  for (std::size_t i = 0; i < kCampaigns; ++i) {
    CampaignSpec spec;
    spec.owner = "owner" + std::to_string(i % kOwners);
    spec.weight = 1.0 + static_cast<double>((i / kOwners) % 3);
    spec.scenarios = 1 + static_cast<Count>(i % 2);
    spec.months = 1 + static_cast<Count>((i / 3) % 3);
    (void)service.submit(spec, static_cast<Seconds>(i) * 60.0);
  }
  ASSERT_TRUE(service.run());
  std::size_t waited = 0;
  for (const CampaignId id : service.campaign_ids()) {
    const CampaignState& state = service.campaign(id);
    ASSERT_EQ(state.status, CampaignStatus::kCompleted) << "campaign " << id;
    if (state.admit_time > state.submit_time) ++waited;
  }
  // The load must actually queue, or the index is never exercised.
  EXPECT_GT(waited, kCampaigns / 2);
}

// Recovery must rebuild the incremental bookkeeping from a snapshot well
// enough to survive the cross-check for the rest of the run.
TEST(Incremental, CrossCheckSurvivesSnapshotRecovery) {
  const std::vector<Entry> entries = random_workload(7);
  const std::string base_dir = temp_dir("incr-recover-base");
  const RunResult expected =
      run_workload(entries, QueuePolicy::kWeightedFairShare, base_dir,
                   /*verify_incremental=*/true);

  const std::string dir = temp_dir("incr-recover");
  {
    ServiceOptions options;
    options.policy = QueuePolicy::kWeightedFairShare;
    options.max_active = 3;
    options.queue_capacity = 8;
    options.journal_dir = dir;
    options.snapshot_every = 10;
    options.kill_after_records = 25;
    options.verify_incremental = true;
    CampaignService victim(test_grid(), std::move(options));
    for (const Entry& entry : entries)
      (void)victim.submit(entry.spec, entry.at);
    ASSERT_FALSE(victim.run());
  }
  ServiceOptions options;
  options.policy = QueuePolicy::kWeightedFairShare;
  options.max_active = 3;
  options.queue_capacity = 8;
  options.journal_dir = dir;
  options.snapshot_every = 10;
  options.verify_incremental = true;
  CampaignService survivor(test_grid(), std::move(options));
  const RecoveryReport report = survivor.recover();
  EXPECT_TRUE(report.journal_found);
  const std::size_t known = survivor.campaign_ids().size();
  for (std::size_t i = known; i < entries.size(); ++i)
    (void)survivor.submit(entries[i].spec, entries[i].at);
  ASSERT_TRUE(survivor.run());
  EXPECT_EQ(capture(survivor), expected.finals);
}

}  // namespace
}  // namespace oagrid::service
