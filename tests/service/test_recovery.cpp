#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

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

platform::Grid test_grid() {
  std::vector<platform::Cluster> clusters;
  clusters.push_back(platform::make_builtin_cluster(0, 20));
  clusters.push_back(platform::make_builtin_cluster(1, 20));
  return platform::Grid(std::move(clusters));
}

struct Entry {
  CampaignSpec spec;
  Seconds at = 0.0;
};

// A workload with queueing, staggered arrivals, multiple owners and an
// owner submitting twice — enough structure that admission order, lease
// carving and fair-share accounting all matter.
std::vector<Entry> workload() {
  const auto spec = [](const std::string& owner, double weight, Count ns,
                       Count nm) {
    CampaignSpec s;
    s.owner = owner;
    s.weight = weight;
    s.scenarios = ns;
    s.months = nm;
    return s;
  };
  return {{spec("alice", 1.0, 3, 3), 0.0},
          {spec("bob", 2.0, 2, 4), 0.0},
          {spec("carol", 1.0, 2, 2), 2000.0},
          {spec("alice", 1.0, 1, 3), 6000.0}};
}

ServiceOptions make_options(const std::string& dir,
                            long long kill_after = -1,
                            Count snapshot_every = 0) {
  ServiceOptions options;
  options.policy = QueuePolicy::kWeightedFairShare;
  options.max_active = 2;
  options.journal_dir = dir;
  options.kill_after_records = kill_after;
  options.snapshot_every = snapshot_every;
  return options;
}

std::unique_ptr<CampaignService> make_service(ServiceOptions options) {
  return std::make_unique<CampaignService>(test_grid(), std::move(options));
}

/// The externally observable outcome of one campaign; what "recovers to an
/// identical per-scenario month frontier and the same final makespan" means.
struct Final {
  std::string status;
  Seconds submit_time = 0.0;
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
    out[id] = Final{to_string(state.status), state.submit_time,
                    state.admit_time,        state.finish_time,
                    state.months_done,       state.frontier,
                    state.assignment};
  }
  return out;
}

/// Submits the workload entries this (possibly recovered) service does not
/// know about yet. Ids are arrival order, so entry i always becomes
/// campaign i + 1; everything past the highest known id is missing.
void submit_missing(CampaignService& service, const std::vector<Entry>& all) {
  const std::size_t known = service.campaign_ids().size();
  for (std::size_t i = known; i < all.size(); ++i)
    (void)service.submit(all[i].spec, all[i].at);
}

/// Reference run: uninterrupted, journaled into `dir`.
std::map<CampaignId, Final> baseline_run(const std::string& dir) {
  auto service = make_service(make_options(dir));
  submit_missing(*service, workload());
  EXPECT_TRUE(service->run());
  return capture(*service);
}

/// Recover-and-resume generations (keeping `kill_after` armed each time)
/// until a run survives to completion; returns the final outcome.
std::map<CampaignId, Final> resume_until_done(const std::string& dir,
                                              long long kill_after,
                                              Count snapshot_every = 0) {
  for (int generation = 0; generation < 128; ++generation) {
    auto service = make_service(make_options(dir, kill_after, snapshot_every));
    (void)service->recover();
    submit_missing(*service, workload());
    if (service->run()) return capture(*service);
    EXPECT_TRUE(service->killed());
  }
  ADD_FAILURE() << "service never completed within 128 resume generations";
  return {};
}

TEST(Recovery, MissingJournalIsAFreshStart) {
  const std::string dir = temp_dir("recovery-fresh");
  auto service = make_service(make_options(dir));
  const RecoveryReport report = service->recover();
  EXPECT_FALSE(report.journal_found);
  EXPECT_EQ(report.replayed_records, 0u);
  // The service is perfectly usable afterwards.
  submit_missing(*service, workload());
  EXPECT_TRUE(service->run());
  EXPECT_TRUE(fs::exists(CampaignService::journal_path(dir)));
}

TEST(Recovery, EmptyJournalReplaysToNothing) {
  const std::string dir = temp_dir("recovery-empty");
  {
    auto service = make_service(make_options(dir));
    EXPECT_TRUE(service->run());  // no submissions: header-only journal
  }
  auto service = make_service(make_options(dir));
  const RecoveryReport report = service->recover();
  EXPECT_TRUE(report.journal_found);
  EXPECT_EQ(report.replayed_records, 0u);
  EXPECT_FALSE(report.torn_tail);
  EXPECT_EQ(report.resume_time, 0.0);
}

TEST(Recovery, UninterruptedJournalReplaysToIdenticalState) {
  const std::string dir = temp_dir("recovery-replay");
  const auto expected = baseline_run(dir);
  const auto before = read_journal(CampaignService::journal_path(dir));

  auto service = make_service(make_options(dir));
  const RecoveryReport report = service->recover();
  EXPECT_TRUE(report.journal_found);
  EXPECT_FALSE(report.snapshot_used);
  EXPECT_FALSE(report.torn_tail);
  EXPECT_EQ(report.replayed_records, before.events.size());
  EXPECT_EQ(capture(*service), expected);
  EXPECT_TRUE(service->active_leases().empty());

  // Nothing left to do, and verified replay appended nothing new.
  EXPECT_TRUE(service->run());
  const auto after = read_journal(CampaignService::journal_path(dir));
  ASSERT_EQ(after.events.size(), before.events.size());
  for (std::size_t i = 0; i < before.events.size(); ++i)
    EXPECT_TRUE(after.events[i] == before.events[i]);
}

// The tentpole acceptance test: kill the service after EVERY possible
// journal record count and check the resumed run reaches the exact same
// per-campaign frontiers, finish times and journal bytes as the
// uninterrupted baseline.
TEST(Recovery, KillAtEveryRecordResumesToTheBaselineOutcome) {
  const std::string base_dir = temp_dir("recovery-baseline");
  const auto expected = baseline_run(base_dir);
  const auto golden = read_journal(CampaignService::journal_path(base_dir));
  ASSERT_GT(golden.events.size(), 20u);  // the workload is non-trivial

  const std::string dir = temp_dir("recovery-kill");
  const long long records = static_cast<long long>(golden.events.size());
  for (long long kill = 1; kill < records; ++kill) {
    fs::remove_all(dir);
    fs::create_directories(dir);
    {
      auto victim = make_service(make_options(dir, kill));
      submit_missing(*victim, workload());
      ASSERT_FALSE(victim->run()) << "kill point " << kill;
      ASSERT_TRUE(victim->killed());
    }
    auto survivor = make_service(make_options(dir));
    const RecoveryReport report = survivor->recover();
    ASSERT_TRUE(report.journal_found) << "kill point " << kill;
    ASSERT_EQ(report.replayed_records, static_cast<std::uint64_t>(kill));
    submit_missing(*survivor, workload());
    ASSERT_TRUE(survivor->run()) << "kill point " << kill;

    ASSERT_EQ(capture(*survivor), expected) << "kill point " << kill;
    const auto replayed = read_journal(CampaignService::journal_path(dir));
    ASSERT_EQ(replayed.events.size(), golden.events.size())
        << "kill point " << kill;
    for (std::size_t i = 0; i < golden.events.size(); ++i)
      ASSERT_TRUE(replayed.events[i] == golden.events[i])
          << "kill point " << kill << " record " << i;
  }
}

TEST(Recovery, TornFinalRecordIsDroppedAndRegenerated) {
  const std::string base_dir = temp_dir("recovery-torn-baseline");
  const auto expected = baseline_run(base_dir);

  const std::string dir = temp_dir("recovery-torn");
  (void)baseline_run(dir);
  const std::string path = CampaignService::journal_path(dir);
  // Shear mid-record, as an interrupted write would.
  const auto size = fs::file_size(path);
  fs::resize_file(path, size - 5);

  auto service = make_service(make_options(dir));
  const RecoveryReport report = service->recover();
  EXPECT_TRUE(report.torn_tail);
  EXPECT_GT(report.dropped_bytes, 0u);
  submit_missing(*service, workload());
  EXPECT_TRUE(service->run());
  EXPECT_EQ(capture(*service), expected);

  // The healed journal byte-matches the intact baseline's.
  const auto golden = read_journal(CampaignService::journal_path(base_dir));
  const auto healed = read_journal(path);
  EXPECT_FALSE(healed.torn_tail);
  ASSERT_EQ(healed.events.size(), golden.events.size());
  for (std::size_t i = 0; i < golden.events.size(); ++i)
    EXPECT_TRUE(healed.events[i] == golden.events[i]) << "record " << i;
}

TEST(Recovery, SnapshotCompactionPreservesTheOutcome) {
  const std::string base_dir = temp_dir("recovery-snap-baseline");
  const auto expected = baseline_run(base_dir);
  const auto golden = read_journal(CampaignService::journal_path(base_dir));
  const long long records = static_cast<long long>(golden.events.size());

  const std::string dir = temp_dir("recovery-snap");
  bool snapshot_ever_used = false;
  for (const long long kill : {7ll, 13ll, 20ll, records - 2}) {
    if (kill < 1 || kill >= records) continue;
    fs::remove_all(dir);
    fs::create_directories(dir);
    {
      auto victim = make_service(make_options(dir, kill, /*snapshot_every=*/6));
      submit_missing(*victim, workload());
      ASSERT_FALSE(victim->run());
    }
    auto survivor = make_service(make_options(dir, -1, /*snapshot_every=*/6));
    const RecoveryReport report = survivor->recover();
    snapshot_ever_used |= report.snapshot_used;
    if (report.snapshot_used) {
      EXPECT_GT(report.snapshot_seq, 0u);
      // Compaction really happened: the journal no longer starts at 0.
      EXPECT_GT(read_journal(CampaignService::journal_path(dir)).base_seq, 0u);
    }
    submit_missing(*survivor, workload());
    ASSERT_TRUE(survivor->run()) << "kill point " << kill;
    ASSERT_EQ(capture(*survivor), expected) << "kill point " << kill;
  }
  EXPECT_TRUE(snapshot_ever_used);
}

TEST(Recovery, ChainedKillsEventuallyCompleteWithTheBaselineOutcome) {
  const std::string base_dir = temp_dir("recovery-chain-baseline");
  const auto expected = baseline_run(base_dir);

  // Crash every 5 appends, forever; each generation still makes progress
  // (5 fresh records), so the campaign must land on the same outcome.
  const std::string dir = temp_dir("recovery-chain");
  {
    auto victim = make_service(make_options(dir, 5));
    submit_missing(*victim, workload());
    ASSERT_FALSE(victim->run());
  }
  EXPECT_EQ(resume_until_done(dir, 5), expected);

  // Same, with snapshotting racing the crashes.
  const std::string snap_dir = temp_dir("recovery-chain-snap");
  {
    auto victim = make_service(make_options(snap_dir, 5, /*snapshot_every=*/4));
    submit_missing(*victim, workload());
    ASSERT_FALSE(victim->run());
  }
  EXPECT_EQ(resume_until_done(snap_dir, 5, /*snapshot_every=*/4), expected);
}

TEST(Recovery, DoubleRecoveryIsIdempotent) {
  const std::string dir = temp_dir("recovery-twice");
  {
    auto victim = make_service(make_options(dir, 17));
    submit_missing(*victim, workload());
    ASSERT_FALSE(victim->run());
  }
  auto first = make_service(make_options(dir));
  const RecoveryReport report_a = first->recover();
  auto second = make_service(make_options(dir));
  const RecoveryReport report_b = second->recover();

  EXPECT_EQ(report_a.replayed_records, report_b.replayed_records);
  EXPECT_EQ(report_a.resume_time, report_b.resume_time);
  EXPECT_EQ(capture(*first), capture(*second));
  EXPECT_EQ(first->now(), second->now());
  EXPECT_EQ(first->active_leases().size(), second->active_leases().size());
}

TEST(Recovery, ConfigMismatchIsRefused) {
  const std::string dir = temp_dir("recovery-config");
  (void)baseline_run(dir);  // written under fair share
  ServiceOptions options = make_options(dir);
  options.policy = QueuePolicy::kFifo;
  auto service = make_service(std::move(options));
  EXPECT_THROW((void)service->recover(), std::invalid_argument);
}

TEST(Recovery, SnapshotFromAnotherGridIsRefused) {
  // A snapshot taken on five clusters names clusters 2..4; resuming it on
  // two must be refused before any of those ids indexes the service's state.
  const std::string dir = temp_dir("recovery-other-grid");
  const platform::Grid five = platform::make_builtin_grid(20);
  const auto spec = [](const std::string& owner, double weight, Count ns,
                       Count nm) {
    CampaignSpec s;
    s.owner = owner;
    s.weight = weight;
    s.scenarios = ns;
    s.months = nm;
    return s;
  };
  ServiceOptions options;
  options.journal_dir = dir;
  options.snapshot_every = 8;
  options.kill_after_records = 30;
  options.group_commit = true;
  {
    CampaignService victim(five, options);
    (void)victim.submit(spec("alice", 1.0, 3, 12), 0.0);
    (void)victim.submit(spec("bob", 2.0, 4, 12), 0.0);
    (void)victim.submit(spec("carol", 1.0, 5, 10), 0.0);
    (void)victim.submit(spec("dave", 1.0, 3, 12), 3000.0);
    ASSERT_FALSE(victim.run());
    ASSERT_TRUE(victim.killed());
  }
  options.kill_after_records = -1;
  CampaignService resumed(five.prefix(2), options);
  try {
    (void)resumed.recover();
    FAIL() << "a five-cluster snapshot was resumed on two clusters";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("snapshot does not fit"),
              std::string::npos)
        << error.what();
  }
}

TEST(Recovery, RecoverNeedsAJournalDirectory) {
  auto service = make_service(ServiceOptions{});  // in-memory only
  EXPECT_THROW((void)service->recover(), std::invalid_argument);
}

TEST(Recovery, RecoverMustBeTheFirstCall) {
  const std::string dir = temp_dir("recovery-order");
  auto service = make_service(make_options(dir));
  (void)service->submit(workload()[0].spec, 0.0);
  EXPECT_THROW((void)service->recover(), std::invalid_argument);
}

// --- group-commit journaling ----------------------------------------------

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

ServiceOptions make_batch_options(const std::string& dir,
                                  long long kill_after = -1,
                                  Count snapshot_every = 0) {
  ServiceOptions options = make_options(dir, kill_after, snapshot_every);
  options.group_commit = true;
  return options;
}

TEST(GroupCommitRecovery, JournalBytesMatchThePerRecordJournal) {
  const std::string per_record_dir = temp_dir("batch-bytes-per-record");
  const auto expected = baseline_run(per_record_dir);

  const std::string batch_dir = temp_dir("batch-bytes-batched");
  auto service = make_service(make_batch_options(batch_dir));
  submit_missing(*service, workload());
  EXPECT_TRUE(service->run());
  EXPECT_EQ(capture(*service), expected);

  // Not just the same records — the same bytes: batching only changes when
  // frames reach the disk, never what they are.
  EXPECT_EQ(read_file(CampaignService::journal_path(batch_dir)),
            read_file(CampaignService::journal_path(per_record_dir)));
}

// The group-commit analogue of the kill matrix: a crash at any append now
// also forfeits whatever the current batch had buffered, so recovery sees
// the last commit boundary. The resumed run must still land on the exact
// baseline outcome and journal bytes.
TEST(GroupCommitRecovery, KillAtEveryRecordResumesToTheBaselineOutcome) {
  const std::string base_dir = temp_dir("batch-kill-baseline");
  const auto expected = baseline_run(base_dir);
  const auto golden = read_journal(CampaignService::journal_path(base_dir));

  const std::string dir = temp_dir("batch-kill");
  const long long records = static_cast<long long>(golden.events.size());
  for (long long kill = 1; kill < records; ++kill) {
    fs::remove_all(dir);
    fs::create_directories(dir);
    {
      auto victim = make_service(make_batch_options(dir, kill));
      submit_missing(*victim, workload());
      ASSERT_FALSE(victim->run()) << "kill point " << kill;
      ASSERT_TRUE(victim->killed());
    }
    auto survivor = make_service(make_batch_options(dir));
    const RecoveryReport report = survivor->recover();
    ASSERT_TRUE(report.journal_found) << "kill point " << kill;
    // Only the batches committed before the kill are on disk.
    ASSERT_LE(report.replayed_records, static_cast<std::uint64_t>(kill));
    ASSERT_FALSE(report.torn_tail);  // a lost batch is a clean cut
    submit_missing(*survivor, workload());
    ASSERT_TRUE(survivor->run()) << "kill point " << kill;

    ASSERT_EQ(capture(*survivor), expected) << "kill point " << kill;
    ASSERT_EQ(read_file(CampaignService::journal_path(dir)),
              read_file(CampaignService::journal_path(base_dir)))
        << "kill point " << kill;
  }
}

TEST(GroupCommitRecovery, ChainedKillsEventuallyComplete) {
  const std::string base_dir = temp_dir("batch-chain-baseline");
  const auto expected = baseline_run(base_dir);

  // Unlike per-record mode, a generation only banks whole ticks — the kill
  // budget must exceed the largest single-tick batch or no generation would
  // ever commit anything.
  const std::string dir = temp_dir("batch-chain");
  {
    auto victim = make_service(make_batch_options(dir, 16));
    submit_missing(*victim, workload());
    ASSERT_FALSE(victim->run());
  }
  for (int generation = 0; generation < 128; ++generation) {
    auto service = make_service(make_batch_options(dir, 16));
    (void)service->recover();
    submit_missing(*service, workload());
    if (service->run()) {
      EXPECT_EQ(capture(*service), expected);
      EXPECT_EQ(read_file(CampaignService::journal_path(dir)),
                read_file(CampaignService::journal_path(base_dir)));
      return;
    }
  }
  ADD_FAILURE() << "service never completed within 128 resume generations";
}

TEST(GroupCommitRecovery, ModesInteroperateOnTheSameJournal) {
  const std::string base_dir = temp_dir("batch-mixed-baseline");
  const auto expected = baseline_run(base_dir);

  // Killed while writing per-record, resumed with group commit...
  const std::string dir_a = temp_dir("batch-mixed-a");
  {
    auto victim = make_service(make_options(dir_a, 11));
    submit_missing(*victim, workload());
    ASSERT_FALSE(victim->run());
  }
  {
    auto survivor = make_service(make_batch_options(dir_a));
    (void)survivor->recover();
    submit_missing(*survivor, workload());
    ASSERT_TRUE(survivor->run());
    EXPECT_EQ(capture(*survivor), expected);
  }

  // ...and killed while batching, resumed per-record. The bytes carry no
  // trace of the discipline, so neither direction needs a migration.
  const std::string dir_b = temp_dir("batch-mixed-b");
  {
    auto victim = make_service(make_batch_options(dir_b, 11));
    submit_missing(*victim, workload());
    ASSERT_FALSE(victim->run());
  }
  {
    auto survivor = make_service(make_options(dir_b));
    (void)survivor->recover();
    submit_missing(*survivor, workload());
    ASSERT_TRUE(survivor->run());
    EXPECT_EQ(capture(*survivor), expected);
  }
  EXPECT_EQ(read_file(CampaignService::journal_path(dir_a)),
            read_file(CampaignService::journal_path(dir_b)));
}

TEST(GroupCommitRecovery, SnapshotsNeverOutrunTheJournal) {
  const std::string base_dir = temp_dir("batch-snap-baseline");
  const auto expected = baseline_run(base_dir);
  const auto golden = read_journal(CampaignService::journal_path(base_dir));
  const long long records = static_cast<long long>(golden.events.size());

  // Snapshot cadence + batching: the pre-snapshot commit keeps snapshot.seq
  // inside the journal's durable prefix at every kill point.
  const std::string dir = temp_dir("batch-snap");
  for (const long long kill : {7ll, 13ll, 20ll, records - 2}) {
    if (kill < 1 || kill >= records) continue;
    fs::remove_all(dir);
    fs::create_directories(dir);
    {
      auto victim =
          make_service(make_batch_options(dir, kill, /*snapshot_every=*/6));
      submit_missing(*victim, workload());
      ASSERT_FALSE(victim->run());
    }
    auto survivor =
        make_service(make_batch_options(dir, -1, /*snapshot_every=*/6));
    ASSERT_NO_THROW((void)survivor->recover()) << "kill point " << kill;
    submit_missing(*survivor, workload());
    ASSERT_TRUE(survivor->run()) << "kill point " << kill;
    ASSERT_EQ(capture(*survivor), expected) << "kill point " << kill;
  }
}

}  // namespace
}  // namespace oagrid::service
