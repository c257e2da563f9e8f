#pragma once
/// \file service.hpp
/// \brief The long-running campaign service: a deterministic service loop
/// multiplexing many tenants' campaigns over one shared grid, with elastic
/// leases and a crash-recoverable journal.
///
/// Layering (the control plane above sched/sim, below the CLI):
///
///   CampaignQueue  — who waits, and in what order (admission policy);
///   LeaseManager   — who holds how many processors of which cluster;
///   JournalWriter  — what happened, durably (WAL + snapshots);
///   CampaignService— the event loop tying them together over a simulated
///                    service clock, with sched supplying groupings
///                    (knapsack per allotment) and performance vectors
///                    (admission-time Algorithm-1 placement per campaign).
///
/// Determinism is the design center: every decision (admission order, lease
/// plan, group dispatch, tie-breaks) is a pure function of journaled state,
/// so recovery *re-executes* the loop while verifying that regenerated
/// records byte-match the stored journal. A campaign killed at an arbitrary
/// journal point therefore resumes at the exact per-scenario month frontier
/// and finishes with the same makespan as an uninterrupted run. In-flight
/// months (started, not yet journaled as complete) are re-derived by the
/// replay — the same re-run-the-month semantics as the climate restart
/// files on the data plane.
///
/// Execution model: the service executes the *main* tasks of each month on
/// the leased processor groups (the control-plane frontier the journal
/// protects); post-processing remains the data plane's business and is
/// accounted for only inside the performance vectors used for estimates.
///
/// The paper's "cannot change location" rule is enforced at two radii:
/// scenarios are pinned to their admission-time cluster forever, and a
/// lease change on a cluster only takes effect once every month currently
/// running there has completed (the running months keep their processors).

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "platform/grid.hpp"
#include "sched/heuristics.hpp"
#include "service/campaign.hpp"
#include "service/estimator.hpp"
#include "service/journal.hpp"
#include "service/lease.hpp"
#include "service/queue.hpp"

namespace oagrid::service {

struct ServiceOptions {
  QueuePolicy policy = QueuePolicy::kWeightedFairShare;
  std::size_t queue_capacity = 64;  ///< admission control: reject beyond this
  int max_active = 4;               ///< concurrently running tenants
  sched::Heuristic heuristic = sched::Heuristic::kKnapsack;

  /// Directory for journal.bin / snapshot.bin; empty -> in-memory only
  /// (no persistence, recover() unavailable).
  std::string journal_dir;
  /// Journal records between snapshots (0 = never snapshot). Snapshotting
  /// compacts: the journal restarts from the snapshot's sequence number.
  Count snapshot_every = 0;
  /// Crash-injection hook for tests and demos: after this many journal
  /// appends the service behaves as if SIGKILLed — no further writes, run()
  /// returns false, in-memory state is garbage. Negative = disabled.
  long long kill_after_records = -1;

  /// Estimation backend; null -> a built-in AnalyticEstimator.
  PerfEstimator* estimator = nullptr;

  /// Group-commit journaling: buffer the records of one event-loop tick and
  /// write+flush them as a single batch at the commit boundary (end of
  /// pump_one). The on-disk bytes are identical to per-record mode; a crash
  /// loses the uncommitted batch, which recovery treats exactly like a torn
  /// tail. Off by default so per-record durability stays the library
  /// baseline; the CLI turns it on.
  bool group_commit = false;

  /// Debug cross-check of the incremental control-plane bookkeeping (lease
  /// claims are updated in place; the max-min plan, cluster admissibility
  /// and the dispatch scan are only recomputed when their inputs changed):
  /// the claims, every cached result and every admission pick are compared
  /// against a full recompute; any divergence throws. Slow — for tests.
  bool verify_incremental = false;
};

/// What recover() found and rebuilt.
struct RecoveryReport {
  bool journal_found = false;
  bool snapshot_used = false;
  std::uint64_t snapshot_seq = 0;
  std::uint64_t replayed_records = 0; ///< records re-verified from the WAL
  bool torn_tail = false;             ///< a truncated/corrupt tail was dropped
  std::uint64_t dropped_bytes = 0;
  Seconds resume_time = 0.0;          ///< service clock at the frontier
};

class CampaignService {
 public:
  CampaignService(platform::Grid grid, ServiceOptions options);
  ~CampaignService();
  CampaignService(const CampaignService&) = delete;
  CampaignService& operator=(const CampaignService&) = delete;

  /// Schedules a submission at service time `at`. Submissions must be made
  /// in non-decreasing `at` order (campaign ids then equal arrival order —
  /// the invariant recovery relies on) and before run(). Returns the id.
  CampaignId submit(CampaignSpec spec, Seconds at = 0.0);

  /// Rebuilds state from the journal directory: loads the newest valid
  /// snapshot (if any), then re-executes the loop against the journal
  /// suffix, verifying every regenerated record against the stored bytes.
  /// Call on a fresh instance, before submit()/run(). Throws on config
  /// mismatch or irrecoverable corruption. A missing journal is not an
  /// error (fresh start).
  RecoveryReport recover();

  /// Runs the service loop until no work remains. Returns false when the
  /// crash-injection hook fired (the instance must then be discarded).
  bool run();

  // --- introspection -----------------------------------------------------
  [[nodiscard]] Seconds now() const noexcept { return now_; }
  [[nodiscard]] const platform::Grid& grid() const noexcept { return grid_; }
  [[nodiscard]] const ServiceOptions& options() const noexcept {
    return options_;
  }
  [[nodiscard]] std::vector<CampaignId> campaign_ids() const;
  [[nodiscard]] const CampaignState& campaign(CampaignId id) const;
  [[nodiscard]] std::size_t queue_depth() const noexcept {
    return queue_.depth();
  }
  /// Current leases, sorted by (campaign, cluster).
  [[nodiscard]] std::vector<Lease> active_leases() const;
  [[nodiscard]] std::uint64_t journal_seq() const noexcept;
  [[nodiscard]] std::uint64_t lease_changes() const noexcept {
    return lease_changes_;
  }
  /// Times a lease plan was served from cache instead of recomputed.
  [[nodiscard]] std::uint64_t plan_reuse() const noexcept {
    return plan_reuse_;
  }
  [[nodiscard]] bool killed() const noexcept { return killed_; }

  /// FNV-1a over the full snapshot encoding of the current state — the
  /// deterministic seam the property-testing harness byte-checks: a service
  /// recovered from any kill point must reach the signature of an
  /// uninterrupted run once both are drained.
  [[nodiscard]] std::uint64_t state_signature() const;

  /// Paths inside a journal directory (shared with tools/tests).
  [[nodiscard]] static std::string journal_path(const std::string& dir);
  [[nodiscard]] static std::string snapshot_path(const std::string& dir);

 private:
  struct Allotment {
    ProcCount procs = 0;
    std::vector<ProcCount> group_sizes;
    std::vector<char> group_busy;
  };

  struct ClusterRuntime {
    bool reconfiguring = false;           ///< draining toward new targets
    std::map<CampaignId, ProcCount> targets;
    int running = 0;                      ///< months in flight
  };

  struct PendingEvent {
    Seconds time = 0.0;
    int kind = 0;  ///< 0 = submission arrival, 1 = month completion
    CampaignId campaign = 0;
    ClusterId cluster = 0;
    int group = 0;
    ScenarioId scenario = 0;
    MonthIndex month = 0;

    [[nodiscard]] bool operator<(const PendingEvent& other) const;
  };

  using AllotmentKey = std::pair<CampaignId, ClusterId>;

  // Event loop.
  void pump_one();
  void process_submission(const PendingEvent& event);
  void process_completion(const PendingEvent& event);
  void dispatch();
  int dispatch_key(const AllotmentKey& key, Allotment& allotment);
  void complete_campaign(CampaignState& state);

  // Admission and leases.
  void try_admit();
  void admit(CampaignId id);
  void rebalance_and_admit();
  [[nodiscard]] std::vector<LeaseClaim> incumbent_claims() const;
  /// A running campaign's claim, counted from its unfinished scenarios.
  [[nodiscard]] LeaseClaim claim_of(const CampaignState& state) const;
  [[nodiscard]] std::vector<LeaseClaim>::iterator find_claim(CampaignId id);
  void verify_claims() const;
  [[nodiscard]] const std::vector<Lease>& current_plan();
  /// Processors on cluster `c` left once every running campaign pinned
  /// there holds its min_group floor.
  [[nodiscard]] ProcCount free_capacity(ClusterId c) const;
  [[nodiscard]] bool admissible_now();
  void invalidate_plan() noexcept;
  void enqueue(CampaignId id);
  void dequeue(CampaignId id);
  void reprioritize_owner(const std::string& owner);
  [[nodiscard]] double admission_priority(CampaignId id);
  void apply_plan(const std::vector<Lease>& plan);
  void apply_targets(ClusterId cluster,
                     const std::map<CampaignId, ProcCount>& targets);
  void apply_reconfigure(ClusterId cluster);

  // Journal plumbing.
  void journal_append(const Event& event);
  void commit_journal();
  void finish_replay();
  void maybe_snapshot();
  [[nodiscard]] JournalConfig journal_config() const;

  // Snapshot codec.
  [[nodiscard]] std::string encode_state() const;
  void decode_state(const std::string& payload);

  platform::Grid grid_;
  ServiceOptions options_;
  CampaignQueue queue_;
  LeaseManager leases_;
  std::unique_ptr<PerfEstimator> default_estimator_;
  PerfEstimator* estimator_;  ///< options_.estimator or default_estimator_

  Seconds now_ = 0.0;
  CampaignId next_campaign_id_ = 1;
  Seconds last_submit_at_ = 0.0;
  bool started_ = false;

  std::map<CampaignId, CampaignState> campaigns_;
  std::map<CampaignId, std::vector<char>> scenario_running_;  ///< transient
  std::map<AllotmentKey, Allotment> allotments_;
  std::vector<ClusterRuntime> clusters_;
  std::set<PendingEvent> events_;
  std::map<std::string, double> owner_consumed_;  ///< weighted fair share
  std::map<CampaignId, double> srmf_estimate_;    ///< cached policy input

  // Incremental control-plane bookkeeping, maintained on every transition;
  // the full recompute survives only as the verify_incremental oracle.
  int active_count_ = 0;  ///< campaigns in kRunning
  /// The running campaigns' lease claims, sorted by campaign id and updated
  /// in place at admission, scenario retirement and completion — exactly
  /// what incumbent_claims() derives by scanning frontiers.
  std::vector<LeaseClaim> claims_;
  /// Per cluster: running campaigns with at least one scenario pinned there
  /// (the admissibility floor count).
  std::vector<int> pinned_campaigns_;
  /// Per cluster: campaigns holding an allotment there (dirty fan-out when a
  /// whole cluster becomes dispatchable again).
  std::vector<std::set<CampaignId>> cluster_members_;
  /// Allotments whose dispatch inputs changed since the last dispatch().
  std::set<AllotmentKey> dispatch_dirty_;
  /// Fair share: per owner, the queue's priority class for each weight with
  /// queued campaigns (re-keyed together when the owner's share moves).
  std::map<std::string, std::map<double, CampaignQueue::ClassKey>>
      owner_classes_;

  bool plan_valid_ = false;
  std::vector<Lease> plan_cache_;
  std::uint64_t plan_reuse_ = 0;

  std::unique_ptr<JournalWriter> writer_;
  std::uint64_t last_snapshot_seq_ = 0;
  long long appends_done_ = 0;
  bool killed_ = false;

  // Verified replay (recovery).
  bool replaying_ = false;
  std::vector<Event> replay_expected_;
  std::size_t replay_pos_ = 0;
  std::optional<JournalContents> replay_contents_;  ///< for writer reopen

  std::uint64_t lease_changes_ = 0;
};

}  // namespace oagrid::service
