#include "service/service.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <stdexcept>
#include <tuple>

#include "appmodel/ensemble.hpp"
#include "common/hash.hpp"
#include "obs/obs.hpp"
#include "sched/repartition.hpp"
#include "service/wire.hpp"

namespace oagrid::service {
namespace {

using wire::Cursor;
using wire::put;
using wire::put_string;

constexpr int kSubmission = 0;
constexpr int kCompletion = 1;

}  // namespace

bool CampaignService::PendingEvent::operator<(const PendingEvent& other) const {
  // Total order: time first, submissions before completions at equal times,
  // then every identifying field — the loop must never depend on set
  // iteration luck, or replay would diverge.
  return std::tie(time, kind, campaign, cluster, group, scenario, month) <
         std::tie(other.time, other.kind, other.campaign, other.cluster,
                  other.group, other.scenario, other.month);
}

CampaignService::CampaignService(platform::Grid grid, ServiceOptions options)
    : grid_(std::move(grid)),
      options_(std::move(options)),
      queue_(options_.policy, options_.queue_capacity),
      leases_(&grid_) {
  OAGRID_REQUIRE(grid_.cluster_count() >= 1, "service needs a cluster");
  OAGRID_REQUIRE(options_.max_active >= 1, "max_active must be at least 1");
  clusters_.resize(static_cast<std::size_t>(grid_.cluster_count()));
  pinned_campaigns_.assign(static_cast<std::size_t>(grid_.cluster_count()), 0);
  cluster_members_.resize(static_cast<std::size_t>(grid_.cluster_count()));
  if (options_.estimator != nullptr) {
    estimator_ = options_.estimator;
  } else {
    default_estimator_ = std::make_unique<AnalyticEstimator>();
    estimator_ = default_estimator_.get();
  }
}

CampaignService::~CampaignService() = default;

std::string CampaignService::journal_path(const std::string& dir) {
  return dir + "/journal.bin";
}

std::string CampaignService::snapshot_path(const std::string& dir) {
  return dir + "/snapshot.bin";
}

std::uint64_t CampaignService::journal_seq() const noexcept {
  return writer_ != nullptr ? writer_->seq() : 0;
}

std::uint64_t CampaignService::state_signature() const {
  return fnv1a(encode_state(), kFnv1aShortBasis);
}

namespace {

/// FNV-1a over what the service's plans depend on in each cluster: R, the
/// minimum group, the T[G] table and TP, in grid order. Names do not count.
std::uint64_t grid_fingerprint(const platform::Grid& grid) {
  Fnv1a h;
  h.u64(static_cast<std::uint64_t>(grid.cluster_count()));
  for (const platform::Cluster& cluster : grid.clusters()) {
    h.i64(cluster.resources());
    h.i64(cluster.min_group());
    h.u64(cluster.main_times().size());
    for (const Seconds t : cluster.main_times()) h.f64(t);
    h.f64(cluster.post_time());
  }
  return h.state;
}

}  // namespace

JournalConfig CampaignService::journal_config() const {
  JournalConfig config;
  config.policy = static_cast<std::uint8_t>(options_.policy);
  config.heuristic = static_cast<std::uint8_t>(options_.heuristic);
  config.max_active = static_cast<std::uint32_t>(options_.max_active);
  config.grid = grid_fingerprint(grid_);
  return config;
}

CampaignId CampaignService::submit(CampaignSpec spec, Seconds at) {
  spec.validate();
  OAGRID_REQUIRE(!started_, "submit() must precede run()");
  OAGRID_REQUIRE(at >= last_submit_at_,
                 "submissions must arrive in non-decreasing time order");
  OAGRID_REQUIRE(at >= now_, "cannot submit in the service's past");
  last_submit_at_ = at;
  const CampaignId id = next_campaign_id_++;
  CampaignState state;
  state.id = id;
  state.spec = std::move(spec);
  state.status = CampaignStatus::kScheduled;
  state.submit_time = at;
  campaigns_.emplace(id, std::move(state));

  PendingEvent arrival;
  arrival.time = at;
  arrival.kind = kSubmission;
  arrival.campaign = id;
  events_.insert(arrival);
  return id;
}

bool CampaignService::run() {
  OAGRID_REQUIRE(!killed_, "a killed service cannot run again");
  started_ = true;
  if (writer_ == nullptr && !options_.journal_dir.empty()) {
    writer_ = std::make_unique<JournalWriter>(
        journal_path(options_.journal_dir), 0, journal_config());
    writer_->set_group_commit(options_.group_commit);
  }
  while (!events_.empty() && !killed_) pump_one();
  commit_journal();
  if (obs::enabled())
    obs::metrics().gauge("service.queue.depth")
        .set(static_cast<double>(queue_.depth()));
  return !killed_;
}

void CampaignService::pump_one() {
  const bool timed = obs::enabled() && !replaying_;
  std::chrono::steady_clock::time_point tick_start;
  if (timed) tick_start = std::chrono::steady_clock::now();

  const PendingEvent event = *events_.begin();
  events_.erase(events_.begin());
  now_ = event.time;
  if (event.kind == kSubmission) {
    process_submission(event);
  } else {
    process_completion(event);
  }
  dispatch();
  // The commit boundary: one event fully processed, every consequent record
  // durable before the next event is popped.
  commit_journal();
  maybe_snapshot();

  if (timed) {
    static obs::Histogram& ticks =
        obs::metrics().histogram("service.tick_seconds");
    ticks.record(std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - tick_start)
                     .count());
  }
}

void CampaignService::process_submission(const PendingEvent& event) {
  CampaignState& state = campaigns_.at(event.campaign);

  Event record;
  record.type = EventType::kCampaignSubmitted;
  record.campaign = event.campaign;
  record.time = now_;
  record.owner = state.spec.owner;
  record.weight = state.spec.weight;
  record.scenarios = state.spec.scenarios;
  record.months = state.spec.months;
  journal_append(record);
  if (obs::enabled() && !replaying_) {
    static obs::Counter& submitted =
        obs::metrics().counter("service.campaigns.submitted");
    submitted.add();
  }

  if (queue_.full()) {
    state.status = CampaignStatus::kRejected;
    Event rejected;
    rejected.type = EventType::kCampaignRejected;
    rejected.campaign = event.campaign;
    rejected.time = now_;
    journal_append(rejected);
    if (obs::enabled() && !replaying_) {
      static obs::Counter& count =
          obs::metrics().counter("service.campaigns.rejected");
      count.add();
    }
    return;
  }
  enqueue(event.campaign);
  state.status = CampaignStatus::kQueued;
  if (obs::enabled() && !replaying_)
    obs::metrics().gauge("service.queue.depth")
        .set(static_cast<double>(queue_.depth()));
  try_admit();
}

void CampaignService::process_completion(const PendingEvent& event) {
  CampaignState& state = campaigns_.at(event.campaign);

  Event record;
  record.type = EventType::kMonthCompleted;
  record.campaign = event.campaign;
  record.time = now_;
  record.scenario = event.scenario;
  record.month = event.month;
  record.cluster = event.cluster;
  record.group = event.group;
  journal_append(record);

  Allotment& allotment = allotments_.at({event.campaign, event.cluster});
  const ProcCount group_size =
      allotment.group_sizes[static_cast<std::size_t>(event.group)];
  const Seconds duration = grid_.cluster(event.cluster).main_time(group_size);
  allotment.group_busy[static_cast<std::size_t>(event.group)] = 0;
  scenario_running_.at(event.campaign)[static_cast<std::size_t>(
      event.scenario)] = 0;
  --clusters_[static_cast<std::size_t>(event.cluster)].running;

  ++state.frontier[static_cast<std::size_t>(event.scenario)];
  ++state.months_done;
  state.scenario_ready[static_cast<std::size_t>(event.scenario)] = now_;
  owner_consumed_[state.spec.owner] += group_size * duration;
  reprioritize_owner(state.spec.owner);
  dispatch_dirty_.insert({event.campaign, event.cluster});

  if (state.frontier[static_cast<std::size_t>(event.scenario)] >=
      static_cast<MonthIndex>(state.spec.months)) {
    // The scenario just retired: its pin on the cluster is gone.
    LeaseClaim& claim = *find_claim(event.campaign);
    --claim.unfinished_total;
    const auto pin = std::find_if(
        claim.pinned.begin(), claim.pinned.end(),
        [&](const auto& entry) { return entry.first == event.cluster; });
    if (--pin->second == 0) {
      claim.pinned.erase(pin);
      --pinned_campaigns_[static_cast<std::size_t>(event.cluster)];
    }
    invalidate_plan();
  }

  if (obs::enabled() && !replaying_) {
    static obs::Counter& months =
        obs::metrics().counter("service.months.completed");
    months.add();
    obs::TraceEvent trace;
    trace.name = "c" + std::to_string(event.campaign) + " s" +
                 std::to_string(event.scenario) + " m" +
                 std::to_string(event.month);
    trace.category = "service.month";
    trace.pid = obs::kSimPid;
    trace.track = event.cluster * 64 + event.group;
    trace.ts_us = now_ - duration;
    trace.dur_us = duration;
    obs::trace_buffer().emit_complete(std::move(trace));
  }

  if (state.months_done == state.total_months()) {
    complete_campaign(state);
  } else if (state.frontier[static_cast<std::size_t>(event.scenario)] >=
             static_cast<MonthIndex>(state.spec.months)) {
    // A scenario just retired: the campaign's need shrank — shrink leases
    // accordingly and see whether the freed capacity admits someone.
    rebalance_and_admit();
  }

  ClusterRuntime& runtime = clusters_[static_cast<std::size_t>(event.cluster)];
  if (runtime.reconfiguring && runtime.running == 0)
    apply_reconfigure(event.cluster);
}

void CampaignService::complete_campaign(CampaignState& state) {
  state.status = CampaignStatus::kCompleted;
  state.finish_time = now_;

  Event record;
  record.type = EventType::kCampaignCompleted;
  record.campaign = state.id;
  record.time = now_;
  record.makespan = now_ - state.submit_time;
  journal_append(record);
  if (obs::enabled() && !replaying_) {
    static obs::Counter& completed =
        obs::metrics().counter("service.campaigns.completed");
    completed.add();
    obs::metrics().histogram("service.campaign.makespan_s")
        .record(record.makespan);
  }

  // Release every lease (all months are done, so every group is idle).
  // Range scan: the map is keyed (campaign, cluster), so this campaign's
  // allotments are contiguous.
  std::vector<ClusterId> held;
  for (auto it = allotments_.lower_bound(
           {state.id, std::numeric_limits<ClusterId>::lowest()});
       it != allotments_.end() && it->first.first == state.id; ++it)
    held.push_back(it->first.second);
  for (const ClusterId cluster : held) {
    Event release;
    release.type = EventType::kLeaseChanged;
    release.campaign = state.id;
    release.time = now_;
    release.cluster = cluster;
    release.procs = 0;
    journal_append(release);
    ++lease_changes_;
    if (obs::enabled() && !replaying_) {
      static obs::Counter& changes =
          obs::metrics().counter("service.lease.changes");
      changes.add();
    }
    allotments_.erase({state.id, cluster});
    cluster_members_[static_cast<std::size_t>(cluster)].erase(state.id);
    dispatch_dirty_.erase({state.id, cluster});
  }
  scenario_running_.erase(state.id);
  // Every scenario retired along the way, so the claim's pins already
  // drained away; only the claim itself remains.
  claims_.erase(find_claim(state.id));
  --active_count_;
  invalidate_plan();
  rebalance_and_admit();
}

namespace {

int active_count(const std::map<CampaignId, CampaignState>& campaigns) {
  int active = 0;
  for (const auto& [id, state] : campaigns)
    if (state.status == CampaignStatus::kRunning) ++active;
  return active;
}

}  // namespace

void CampaignService::try_admit() {
  while (!queue_.empty() && active_count_ < options_.max_active &&
         admissible_now()) {
    const CampaignId next = queue_.front();
    if (options_.verify_incremental) {
      if (active_count_ != active_count(campaigns_))
        throw std::runtime_error(
            "oagrid: incremental active-campaign count diverged");
      const std::vector<CampaignId> order = queue_.admission_order(
          [this](CampaignId id) { return admission_priority(id); });
      if (order.front() != next)
        throw std::runtime_error(
            "oagrid: indexed admission order diverged from the full sort");
    }
    admit(next);
  }
}

double CampaignService::admission_priority(CampaignId id) {
  const CampaignState& state = campaigns_.at(id);
  switch (options_.policy) {
    case QueuePolicy::kFifo:
      return 0.0;
    case QueuePolicy::kWeightedFairShare: {
      const auto it = owner_consumed_.find(state.spec.owner);
      const double consumed = it != owner_consumed_.end() ? it->second : 0.0;
      return consumed / state.spec.weight;
    }
    case QueuePolicy::kShortestRemaining: {
      const auto cached = srmf_estimate_.find(id);
      if (cached != srmf_estimate_.end()) return cached->second;
      // Optimistic bound: the best single-cluster makespan of the whole
      // campaign. Cached — the spec never changes while queued.
      double best = std::numeric_limits<double>::infinity();
      for (ClusterId c = 0; c < grid_.cluster_count(); ++c) {
        const sched::PerformanceVector vector =
            estimator_->vector(grid_.cluster(c), state.spec.scenarios,
                               state.spec.months, options_.heuristic);
        best = std::min(best, vector.back());
      }
      srmf_estimate_.emplace(id, best);
      return best;
    }
  }
  return 0.0;
}

void CampaignService::enqueue(CampaignId id) {
  // Under fair share, campaigns of one (owner, weight) always tie, so they
  // share a priority class, named by the campaign that opened it.
  std::optional<CampaignQueue::ClassKey> cls;
  if (options_.policy == QueuePolicy::kWeightedFairShare) {
    const CampaignSpec& spec = campaigns_.at(id).spec;
    cls = owner_classes_[spec.owner].try_emplace(spec.weight, id).first->second;
  }
  const bool enqueued = queue_.try_enqueue(id, admission_priority(id), cls);
  OAGRID_REQUIRE(enqueued, "enqueue failed on a non-full queue");
}

void CampaignService::dequeue(CampaignId id) {
  queue_.remove(id);
  if (options_.policy != QueuePolicy::kWeightedFairShare) return;
  const CampaignSpec& spec = campaigns_.at(id).spec;
  const auto owner = owner_classes_.find(spec.owner);
  const auto cls = owner->second.find(spec.weight);
  if (queue_.has_class(cls->second)) return;
  owner->second.erase(cls);
  if (owner->second.empty()) owner_classes_.erase(owner);
}

void CampaignService::reprioritize_owner(const std::string& owner) {
  // Only fair share fills owner_classes_: one re-key per distinct weight
  // among the owner's queued campaigns.
  const auto it = owner_classes_.find(owner);
  if (it == owner_classes_.end()) return;
  const double consumed = owner_consumed_.at(owner);
  for (const auto& [weight, cls] : it->second)
    queue_.update_priority(cls, consumed / weight);
}

std::vector<LeaseClaim> CampaignService::incumbent_claims() const {
  std::vector<LeaseClaim> claims;
  for (const auto& [id, state] : campaigns_) {
    if (state.status != CampaignStatus::kRunning) continue;
    LeaseClaim claim;
    claim.campaign = id;
    claim.weight = state.spec.weight;
    for (ClusterId c = 0; c < grid_.cluster_count(); ++c) {
      const Count unfinished = state.unfinished_on(c);
      if (unfinished > 0) claim.pinned.push_back({c, unfinished});
      claim.unfinished_total += unfinished;
    }
    claims.push_back(std::move(claim));
  }
  return claims;
}

LeaseClaim CampaignService::claim_of(const CampaignState& state) const {
  std::vector<Count> counts(static_cast<std::size_t>(grid_.cluster_count()),
                            0);
  for (std::size_t s = 0; s < state.assignment.size(); ++s)
    if (state.frontier[s] < static_cast<MonthIndex>(state.spec.months))
      ++counts[static_cast<std::size_t>(state.assignment[s])];
  LeaseClaim claim;
  claim.campaign = state.id;
  claim.weight = state.spec.weight;
  for (ClusterId c = 0; c < grid_.cluster_count(); ++c) {
    const Count unfinished = counts[static_cast<std::size_t>(c)];
    if (unfinished > 0) claim.pinned.push_back({c, unfinished});
    claim.unfinished_total += unfinished;
  }
  return claim;
}

std::vector<LeaseClaim>::iterator CampaignService::find_claim(CampaignId id) {
  return std::lower_bound(
      claims_.begin(), claims_.end(), id,
      [](const LeaseClaim& claim, CampaignId key) {
        return claim.campaign < key;
      });
}

void CampaignService::invalidate_plan() noexcept { plan_valid_ = false; }

void CampaignService::verify_claims() const {
  if (options_.verify_incremental && !(claims_ == incumbent_claims()))
    throw std::runtime_error(
        "oagrid: incremental claims diverged from a full recompute");
}

const std::vector<Lease>& CampaignService::current_plan() {
  verify_claims();
  if (plan_valid_) {
    if (options_.verify_incremental && !(plan_cache_ == leases_.plan(claims_)))
      throw std::runtime_error(
          "oagrid: cached lease plan diverged from a full recompute");
    ++plan_reuse_;
    if (obs::enabled() && !replaying_) {
      static obs::Counter& reuse =
          obs::metrics().counter("service.plan_reuse");
      reuse.add();
    }
    return plan_cache_;
  }
  plan_cache_ = leases_.plan(claims_);
  plan_valid_ = true;
  return plan_cache_;
}

ProcCount CampaignService::free_capacity(ClusterId c) const {
  const platform::Cluster& cluster = grid_.cluster(c);
  return cluster.resources() -
         static_cast<ProcCount>(pinned_campaigns_[static_cast<std::size_t>(c)]) *
             cluster.min_group();
}

bool CampaignService::admissible_now() {
  bool open = false;
  for (ClusterId c = 0; c < grid_.cluster_count() && !open; ++c)
    open = free_capacity(c) >= grid_.cluster(c).min_group();
  if (options_.verify_incremental &&
      open != leases_.admissible(incumbent_claims()))
    throw std::runtime_error(
        "oagrid: incremental admissibility diverged from a full recompute");
  return open;
}

void CampaignService::admit(CampaignId id) {
  dequeue(id);
  CampaignState& state = campaigns_.at(id);
  const Count scenarios = state.spec.scenarios;

  // Pass 1: plan with the newcomer claiming everywhere, plus a guaranteed
  // floor on the admissible cluster with the most free capacity (progressive
  // filling alone could leave a light-weight newcomer below min_group on
  // every cluster — admitted yet unable to start). The draft appends the
  // newcomer to the incumbents' claims and pops it once planned.
  verify_claims();
  ClusterId anchor = -1;
  ProcCount best_free = 0;
  for (ClusterId c = 0; c < grid_.cluster_count(); ++c) {
    const ProcCount free = free_capacity(c);
    if (free >= grid_.cluster(c).min_group() && free > best_free) {
      anchor = c;
      best_free = free;
    }
  }
  OAGRID_REQUIRE(anchor >= 0, "admit() without an admissible cluster");

  LeaseClaim mine;
  mine.campaign = id;
  mine.weight = state.spec.weight;
  mine.newcomer = true;
  mine.unfinished_total = scenarios;
  mine.pinned.push_back({anchor, scenarios});
  claims_.push_back(std::move(mine));
  const std::vector<Lease> draft = leases_.plan(claims_);
  claims_.pop_back();

  // Scenario placement (Algorithm 1) over the draft allotments: one
  // performance vector per granted cluster, each computed on the cluster
  // resized to the lease.
  std::vector<ClusterId> leased;
  std::vector<sched::PerformanceVector> vectors;
  for (const Lease& lease : draft) {
    if (lease.campaign != id) continue;
    leased.push_back(lease.cluster);
    vectors.push_back(estimator_->vector(
        grid_.cluster(lease.cluster).with_resources(lease.procs), scenarios,
        state.spec.months, options_.heuristic));
  }
  const sched::Repartition repartition =
      sched::greedy_repartition(vectors, scenarios);

  state.assignment.resize(static_cast<std::size_t>(scenarios));
  for (Count s = 0; s < scenarios; ++s)
    state.assignment[static_cast<std::size_t>(s)] =
        leased[static_cast<std::size_t>(
            repartition.assignment[static_cast<std::size_t>(s)])];
  state.frontier.assign(static_cast<std::size_t>(scenarios), 0);
  state.scenario_ready.assign(static_cast<std::size_t>(scenarios), now_);
  state.months_done = 0;
  state.status = CampaignStatus::kRunning;
  state.admit_time = now_;
  scenario_running_[id] =
      std::vector<char>(static_cast<std::size_t>(scenarios), 0);

  LeaseClaim claim = claim_of(state);
  for (const auto& [c, count] : claim.pinned)
    ++pinned_campaigns_[static_cast<std::size_t>(c)];
  claims_.insert(find_claim(id), std::move(claim));
  ++active_count_;
  invalidate_plan();

  Event record;
  record.type = EventType::kCampaignAdmitted;
  record.campaign = id;
  record.time = now_;
  record.assignment = state.assignment;
  journal_append(record);
  if (obs::enabled() && !replaying_) {
    static obs::Counter& admitted =
        obs::metrics().counter("service.campaigns.admitted");
    admitted.add();
    obs::metrics().histogram("service.queue.wait_s")
        .record(now_ - state.submit_time);
    obs::metrics().gauge("service.queue.depth")
        .set(static_cast<double>(queue_.depth()));
  }

  // Pass 2: re-plan with the newcomer pinned only where scenarios actually
  // landed, so clusters it was granted but does not use go back to the pool.
  apply_plan(current_plan());
}

void CampaignService::rebalance_and_admit() {
  try_admit();
  apply_plan(current_plan());
}

void CampaignService::apply_plan(const std::vector<Lease>& plan) {
  // The plan and the held allotments are both sorted by (campaign, cluster),
  // so one lockstep walk finds the clusters whose leases differ.
  std::vector<char> differs(static_cast<std::size_t>(grid_.cluster_count()),
                            0);
  auto held = allotments_.begin();
  auto next = plan.begin();
  while (held != allotments_.end() || next != plan.end()) {
    if (next == plan.end() ||
        (held != allotments_.end() &&
         held->first < AllotmentKey{next->campaign, next->cluster})) {
      differs[static_cast<std::size_t>(held->first.second)] = 1;  // released
      ++held;
    } else if (held == allotments_.end() ||
               AllotmentKey{next->campaign, next->cluster} < held->first) {
      differs[static_cast<std::size_t>(next->cluster)] = 1;  // granted
      ++next;
    } else {
      if (held->second.procs != next->procs)
        differs[static_cast<std::size_t>(next->cluster)] = 1;  // resized
      ++held;
      ++next;
    }
  }

  for (ClusterId c = 0; c < grid_.cluster_count(); ++c) {
    const auto ci = static_cast<std::size_t>(c);
    ClusterRuntime& runtime = clusters_[ci];
    if (differs[ci] == 0) {
      // Already there (or a pending reconfiguration became moot). Dropping
      // a pending reconfiguration unstalls the cluster, so every member may
      // dispatch again.
      if (runtime.reconfiguring)
        for (const CampaignId member : cluster_members_[ci])
          dispatch_dirty_.insert({member, c});
      runtime.reconfiguring = false;
      runtime.targets.clear();
      continue;
    }
    std::map<CampaignId, ProcCount> targets;
    for (const Lease& lease : plan)  // ascending campaign ids
      if (lease.cluster == c)
        targets.emplace_hint(targets.end(), lease.campaign, lease.procs);
    if (runtime.running == 0) {
      apply_targets(c, targets);
      runtime.reconfiguring = false;
      runtime.targets.clear();
    } else {
      // The paper's rule, applied to leases: months in flight keep their
      // processors. Stall new starts and re-carve once the cluster drains.
      runtime.reconfiguring = true;
      runtime.targets = std::move(targets);
    }
  }
}

void CampaignService::apply_targets(
    ClusterId cluster, const std::map<CampaignId, ProcCount>& targets) {
  const platform::Cluster& shape = grid_.cluster(cluster);
  std::set<CampaignId> touched;
  for (const auto& [campaign, procs] : targets) touched.insert(campaign);
  for (const auto& [key, allotment] : allotments_)
    if (key.second == cluster) touched.insert(key.first);

  for (const CampaignId campaign : touched) {
    const auto current = allotments_.find({campaign, cluster});
    const ProcCount old_procs =
        current != allotments_.end() ? current->second.procs : 0;
    const auto target = targets.find(campaign);
    const ProcCount new_procs = target != targets.end() ? target->second : 0;
    if (old_procs == new_procs) continue;

    Event record;
    record.type = EventType::kLeaseChanged;
    record.campaign = campaign;
    record.time = now_;
    record.cluster = cluster;
    record.procs = new_procs;
    journal_append(record);
    ++lease_changes_;
    if (obs::enabled() && !replaying_) {
      static obs::Counter& changes =
          obs::metrics().counter("service.lease.changes");
      changes.add();
    }

    if (new_procs == 0) {
      allotments_.erase({campaign, cluster});
      cluster_members_[static_cast<std::size_t>(cluster)].erase(campaign);
      dispatch_dirty_.erase({campaign, cluster});
      continue;
    }
    const CampaignState& state = campaigns_.at(campaign);
    appmodel::Ensemble ensemble;
    ensemble.scenarios = std::max<Count>(1, state.unfinished_on(cluster));
    ensemble.months = state.spec.months;
    const sched::GroupSchedule schedule = sched::make_schedule(
        options_.heuristic, shape.with_resources(new_procs), ensemble);
    Allotment allotment;
    allotment.procs = new_procs;
    allotment.group_sizes = schedule.group_sizes;
    allotment.group_busy.assign(allotment.group_sizes.size(), 0);
    allotments_[{campaign, cluster}] = std::move(allotment);
    cluster_members_[static_cast<std::size_t>(cluster)].insert(campaign);
  }

  // Re-carving (or unstalling after a drain) can free capacity for any
  // campaign still holding the cluster, so mark them all.
  for (const CampaignId member : cluster_members_[static_cast<std::size_t>(
           cluster)])
    dispatch_dirty_.insert({member, cluster});
}

void CampaignService::apply_reconfigure(ClusterId cluster) {
  ClusterRuntime& runtime = clusters_[static_cast<std::size_t>(cluster)];
  apply_targets(cluster, runtime.targets);
  runtime.reconfiguring = false;
  runtime.targets.clear();
}

void CampaignService::dispatch() {
  if (options_.verify_incremental) {
    // Full scan, asserting the dirty set covered every allotment that had
    // work to start: a start on a clean key means the incremental marking
    // missed a state change.
    for (auto& [key, allotment] : allotments_) {
      const bool dirty = dispatch_dirty_.count(key) > 0;
      if (dispatch_key(key, allotment) > 0 && !dirty)
        throw std::runtime_error(
            "oagrid: incremental dispatch missed allotment (campaign " +
            std::to_string(key.first) + ", cluster " +
            std::to_string(key.second) + ")");
    }
    dispatch_dirty_.clear();
    return;
  }
  // Only allotments whose inputs changed this tick can start new months.
  // Keys are visited in (campaign, cluster) order — the full scan's order —
  // though starts on distinct allotments are independent anyway (a scenario
  // is pinned to one cluster, groups belong to one allotment).
  for (const AllotmentKey& key : dispatch_dirty_) {
    const auto it = allotments_.find(key);
    if (it == allotments_.end()) continue;
    dispatch_key(it->first, it->second);
  }
  dispatch_dirty_.clear();
}

int CampaignService::dispatch_key(const AllotmentKey& key,
                                  Allotment& allotment) {
  const auto [campaign, cluster] = key;
  if (clusters_[static_cast<std::size_t>(cluster)].reconfiguring) return 0;
  CampaignState& state = campaigns_.at(campaign);
  std::vector<char>& running = scenario_running_.at(campaign);
  const platform::Cluster& shape = grid_.cluster(cluster);

  int started = 0;
  for (std::size_t g = 0; g < allotment.group_sizes.size(); ++g) {
    if (allotment.group_busy[g] != 0) continue;
    // Most-behind scenario first (lowest id breaks ties): keeps the
    // frontier level, like the per-cluster DES dispatcher.
    ScenarioId pick = -1;
    for (ScenarioId s = 0;
         s < static_cast<ScenarioId>(state.assignment.size()); ++s) {
      if (state.assignment[static_cast<std::size_t>(s)] != cluster) continue;
      if (running[static_cast<std::size_t>(s)] != 0) continue;
      if (state.frontier[static_cast<std::size_t>(s)] >=
          static_cast<MonthIndex>(state.spec.months))
        continue;
      if (pick < 0 || state.frontier[static_cast<std::size_t>(s)] <
                          state.frontier[static_cast<std::size_t>(pick)])
        pick = s;
    }
    if (pick < 0) break;

    running[static_cast<std::size_t>(pick)] = 1;
    allotment.group_busy[g] = 1;
    ++clusters_[static_cast<std::size_t>(cluster)].running;
    ++started;

    PendingEvent completion;
    completion.time = now_ + shape.main_time(allotment.group_sizes[g]);
    completion.kind = kCompletion;
    completion.campaign = campaign;
    completion.cluster = cluster;
    completion.group = static_cast<int>(g);
    completion.scenario = pick;
    completion.month = state.frontier[static_cast<std::size_t>(pick)];
    events_.insert(completion);
  }
  return started;
}

// --- journal plumbing ------------------------------------------------------

void CampaignService::journal_append(const Event& event) {
  if (replaying_) {
    if (replay_pos_ < replay_expected_.size()) {
      if (!(event == replay_expected_[replay_pos_]))
        throw std::runtime_error(
            "oagrid: journal replay divergence at record " +
            std::to_string(replay_pos_) + " (regenerated " +
            std::string(to_string(event.type)) + ", stored " +
            to_string(replay_expected_[replay_pos_].type) + ")");
      ++replay_pos_;
      return;
    }
    // The journal tail is exhausted mid-event (the crash interleaved a
    // transition's records): everything from here on is new history.
    finish_replay();
  }
  if (killed_) return;
  if (options_.kill_after_records >= 0 &&
      appends_done_ >= options_.kill_after_records) {
    killed_ = true;  // emulated SIGKILL: this and later records are lost,
                     // and so is any batch still buffered in memory
    if (writer_ != nullptr) writer_->discard_pending();
    return;
  }
  ++appends_done_;
  if (writer_ != nullptr) {
    writer_->append(event);
    if (!options_.group_commit && obs::enabled() && !replaying_) {
      static obs::Counter& flushes = obs::metrics().counter("journal.flushes");
      static obs::Histogram& batch =
          obs::metrics().histogram("journal.batch_records");
      flushes.add();
      batch.record(1.0);
    }
  }
}

void CampaignService::commit_journal() {
  if (writer_ == nullptr || killed_) return;
  const std::size_t records = writer_->commit();
  if (records > 0 && obs::enabled() && !replaying_) {
    static obs::Counter& flushes = obs::metrics().counter("journal.flushes");
    static obs::Histogram& batch =
        obs::metrics().histogram("journal.batch_records");
    flushes.add();
    batch.record(static_cast<double>(records));
  }
}

void CampaignService::finish_replay() {
  replaying_ = false;
  if (!options_.journal_dir.empty() && replay_contents_.has_value()) {
    writer_ = std::make_unique<JournalWriter>(JournalWriter::reopen(
        journal_path(options_.journal_dir), *replay_contents_));
    writer_->set_group_commit(options_.group_commit);
  }
  replay_contents_.reset();
}

void CampaignService::maybe_snapshot() {
  if (replaying_ || killed_ || writer_ == nullptr ||
      options_.snapshot_every <= 0)
    return;
  if (static_cast<long long>(writer_->seq() - last_snapshot_seq_) <
      options_.snapshot_every)
    return;
  // The snapshot's seq must never exceed the journal's durable prefix (a
  // crash between the two would make recovery reject the snapshot), so any
  // buffered batch goes to disk first.
  commit_journal();
  const std::uint64_t seq = writer_->seq();
  write_snapshot(snapshot_path(options_.journal_dir), seq, encode_state());
  // Compact: the snapshot subsumes every journaled record, so the journal
  // restarts at the snapshot's sequence number.
  writer_ = std::make_unique<JournalWriter>(journal_path(options_.journal_dir),
                                            seq, journal_config());
  writer_->set_group_commit(options_.group_commit);
  last_snapshot_seq_ = seq;
  if (obs::enabled()) {
    static obs::Counter& snapshots =
        obs::metrics().counter("service.snapshots.written");
    snapshots.add();
  }
}

RecoveryReport CampaignService::recover() {
  OAGRID_REQUIRE(!options_.journal_dir.empty(),
                 "recover() needs a journal directory");
  OAGRID_REQUIRE(!started_ && campaigns_.empty() && writer_ == nullptr,
                 "recover() must be the first call on a fresh service");
  RecoveryReport report;
  obs::Span span(obs::enabled() ? &obs::trace_buffer() : nullptr,
                 "service.recover", "service");
  obs::ScopedTimer timer(
      obs::enabled() ? &obs::metrics().histogram("service.recovery.wall_us")
                     : nullptr);

  JournalContents contents = read_journal(journal_path(options_.journal_dir));
  if (!contents.exists) return report;  // fresh start
  const JournalConfig config = journal_config();
  if (contents.config.policy != config.policy ||
      contents.config.heuristic != config.heuristic ||
      contents.config.max_active != config.max_active)
    throw std::invalid_argument(
        "oagrid: journal was written under a different service configuration "
        "(policy/heuristic/max_active must match)");
  report.journal_found = true;
  report.torn_tail = contents.torn_tail;
  report.dropped_bytes = contents.dropped_bytes;

  const SnapshotContents snapshot =
      read_snapshot(snapshot_path(options_.journal_dir));
  if (snapshot.valid && snapshot.seq > contents.end_seq())
    throw std::runtime_error(
        "oagrid: snapshot is newer than the journal's valid prefix");

  if (snapshot.valid && snapshot.seq >= contents.base_seq) {
    decode_state(snapshot.payload);
    last_snapshot_seq_ = snapshot.seq;
    report.snapshot_used = true;
    report.snapshot_seq = snapshot.seq;
    replay_expected_.assign(
        contents.events.begin() +
            static_cast<std::ptrdiff_t>(snapshot.seq - contents.base_seq),
        contents.events.end());
  } else {
    if (contents.base_seq != 0)
      throw std::runtime_error(
          "oagrid: journal is compacted but no usable snapshot exists");
    // Full replay from scratch: re-create the submissions the journal knows
    // about, then let the deterministic loop regenerate everything else.
    for (const Event& event : contents.events) {
      if (event.type != EventType::kCampaignSubmitted) continue;
      CampaignState state;
      state.id = event.campaign;
      state.spec.owner = event.owner;
      state.spec.weight = event.weight;
      state.spec.scenarios = event.scenarios;
      state.spec.months = event.months;
      state.status = CampaignStatus::kScheduled;
      state.submit_time = event.time;
      campaigns_.emplace(state.id, std::move(state));
      PendingEvent arrival;
      arrival.time = event.time;
      arrival.kind = kSubmission;
      arrival.campaign = event.campaign;
      events_.insert(arrival);
      next_campaign_id_ = std::max(next_campaign_id_, event.campaign + 1);
      last_submit_at_ = std::max(last_submit_at_, event.time);
    }
    replay_expected_ = contents.events;
  }
  // A snapshot naming clusters this grid lacks was refused above. Nothing
  // has replayed yet: refuse a grid whose clusters differ in size too.
  if (contents.config.grid != config.grid)
    throw std::invalid_argument(
        "oagrid: journal was written under a different service configuration "
        "(the grid must match: each cluster's R, minimum group, T[G] table and "
        "TP)");
  replay_contents_ = std::move(contents);
  replaying_ = true;
  replay_pos_ = 0;

  const std::size_t expected = replay_expected_.size();
  while (replay_pos_ < expected && replaying_) {
    if (events_.empty())
      throw std::runtime_error(
          "oagrid: journal replay stalled with records left over — the "
          "journal does not match this service's history");
    pump_one();
  }
  if (replaying_) finish_replay();

  report.replayed_records = expected;
  report.resume_time = now_;
  replay_expected_.clear();
  replay_pos_ = 0;
  if (obs::enabled()) {
    static obs::Counter& replayed =
        obs::metrics().counter("service.recovery.replayed_records");
    replayed.add(expected);
  }
  return report;
}

// --- snapshot codec --------------------------------------------------------

std::string CampaignService::encode_state() const {
  std::string out;
  put(out, now_);
  put(out, next_campaign_id_);
  put(out, last_submit_at_);

  put(out, static_cast<std::uint32_t>(campaigns_.size()));
  for (const auto& [id, state] : campaigns_) {
    put(out, id);
    put_string(out, state.spec.owner);
    put(out, state.spec.weight);
    put(out, state.spec.scenarios);
    put(out, state.spec.months);
    put(out, static_cast<std::uint8_t>(state.status));
    put(out, state.submit_time);
    put(out, state.admit_time);
    put(out, state.finish_time);
    put(out, state.months_done);
    put(out, static_cast<std::uint32_t>(state.frontier.size()));
    for (const MonthIndex m : state.frontier) put(out, m);
    for (const Seconds t : state.scenario_ready) put(out, t);
    for (const ClusterId c : state.assignment) put(out, c);
  }

  const std::vector<CampaignId> queued = queue_.queued();
  put(out, static_cast<std::uint32_t>(queued.size()));
  for (const CampaignId id : queued) put(out, id);

  put(out, static_cast<std::uint32_t>(allotments_.size()));
  for (const auto& [key, allotment] : allotments_) {
    put(out, key.first);
    put(out, key.second);
    put(out, allotment.procs);
    put(out, static_cast<std::uint32_t>(allotment.group_sizes.size()));
    for (const ProcCount g : allotment.group_sizes) put(out, g);
  }

  put(out, static_cast<std::uint32_t>(clusters_.size()));
  for (const ClusterRuntime& runtime : clusters_) {
    put(out, static_cast<std::uint8_t>(runtime.reconfiguring ? 1 : 0));
    put(out, static_cast<std::uint32_t>(runtime.targets.size()));
    for (const auto& [campaign, procs] : runtime.targets) {
      put(out, campaign);
      put(out, procs);
    }
  }

  put(out, static_cast<std::uint32_t>(owner_consumed_.size()));
  for (const auto& [owner, consumed] : owner_consumed_) {
    put_string(out, owner);
    put(out, consumed);
  }

  put(out, static_cast<std::uint32_t>(events_.size()));
  for (const PendingEvent& event : events_) {
    put(out, event.time);
    put(out, static_cast<std::uint8_t>(event.kind));
    put(out, event.campaign);
    put(out, event.cluster);
    put(out, event.group);
    put(out, event.scenario);
    put(out, event.month);
  }
  return out;
}

namespace {

/// Refuses a snapshot whose ids this service cannot hold (one taken on a
/// different grid, or corrupt), before any of them indexes its state.
[[noreturn]] void refuse_snapshot(const std::string& mismatch) {
  throw std::invalid_argument("oagrid: snapshot does not fit this service: " +
                              mismatch);
}

}  // namespace

void CampaignService::decode_state(const std::string& payload) {
  Cursor in(payload);
  now_ = in.get<Seconds>();
  next_campaign_id_ = in.get<CampaignId>();
  last_submit_at_ = in.get<Seconds>();

  const ClusterId cluster_count = grid_.cluster_count();
  const auto check_cluster = [&](ClusterId c, const char* where) {
    if (c < 0 || c >= cluster_count)
      refuse_snapshot(std::string(where) + " names cluster " +
                      std::to_string(c) + ", this grid has " +
                      std::to_string(cluster_count));
  };
  const auto check_campaign = [&](CampaignId id, const char* where) {
    if (!campaigns_.contains(id))
      refuse_snapshot(std::string(where) + " names unknown campaign " +
                      std::to_string(id));
  };

  const auto n_campaigns = in.get<std::uint32_t>();
  for (std::uint32_t i = 0; i < n_campaigns; ++i) {
    CampaignState state;
    state.id = in.get<CampaignId>();
    if (!campaigns_.empty() && state.id <= campaigns_.rbegin()->first)
      refuse_snapshot("campaign ids out of order");
    state.spec.owner = in.get_string();
    state.spec.weight = in.get<double>();
    state.spec.scenarios = in.get<Count>();
    state.spec.months = in.get<Count>();
    const auto status = in.get<std::uint8_t>();
    if (status > static_cast<std::uint8_t>(CampaignStatus::kCompleted))
      refuse_snapshot("unknown campaign status " + std::to_string(status));
    state.status = static_cast<CampaignStatus>(status);
    state.submit_time = in.get<Seconds>();
    state.admit_time = in.get<Seconds>();
    state.finish_time = in.get<Seconds>();
    state.months_done = in.get<Count>();
    const auto scenarios = in.get_count(sizeof(MonthIndex) + sizeof(Seconds) +
                                        sizeof(ClusterId));
    state.frontier.resize(scenarios);
    state.scenario_ready.resize(scenarios);
    state.assignment.resize(scenarios);
    for (auto& m : state.frontier) m = in.get<MonthIndex>();
    for (auto& t : state.scenario_ready) t = in.get<Seconds>();
    for (auto& c : state.assignment) {
      c = in.get<ClusterId>();
      check_cluster(c, "an assignment");
    }
    if (state.status == CampaignStatus::kRunning) {
      scenario_running_[state.id] = std::vector<char>(scenarios, 0);
      // Rebuild the claim from the decoded frontier. Campaigns arrive in
      // ascending id order, so appending keeps claims_ sorted.
      claims_.push_back(claim_of(state));
      for (const auto& [c, count] : claims_.back().pinned)
        ++pinned_campaigns_[static_cast<std::size_t>(c)];
      ++active_count_;
    }
    campaigns_.emplace(state.id, std::move(state));
  }

  const auto n_queued = in.get_count(sizeof(CampaignId));
  OAGRID_REQUIRE(n_queued <= queue_.capacity(),
                 "snapshot queue exceeds the configured capacity");
  std::vector<CampaignId> queued(n_queued);
  for (CampaignId& id : queued) {
    id = in.get<CampaignId>();
    check_campaign(id, "the queue");
  }

  const auto n_allotments = in.get<std::uint32_t>();
  for (std::uint32_t i = 0; i < n_allotments; ++i) {
    const auto campaign = in.get<CampaignId>();
    const auto cluster = in.get<ClusterId>();
    check_campaign(campaign, "an allotment");
    check_cluster(cluster, "an allotment");
    Allotment allotment;
    allotment.procs = in.get<ProcCount>();
    const auto groups = in.get_count(sizeof(ProcCount));
    allotment.group_sizes.resize(groups);
    for (auto& g : allotment.group_sizes) g = in.get<ProcCount>();
    allotment.group_busy.assign(groups, 0);
    allotments_[{campaign, cluster}] = std::move(allotment);
    cluster_members_[static_cast<std::size_t>(cluster)].insert(campaign);
    dispatch_dirty_.insert({campaign, cluster});
  }

  const auto n_clusters = in.get<std::uint32_t>();
  OAGRID_REQUIRE(n_clusters == clusters_.size(),
                 "snapshot was taken on a different grid");
  for (ClusterRuntime& runtime : clusters_) {
    runtime.reconfiguring = in.get<std::uint8_t>() != 0;
    const auto n_targets = in.get<std::uint32_t>();
    for (std::uint32_t i = 0; i < n_targets; ++i) {
      const auto campaign = in.get<CampaignId>();
      check_campaign(campaign, "a lease target");
      runtime.targets[campaign] = in.get<ProcCount>();
    }
  }

  const auto n_owners = in.get<std::uint32_t>();
  for (std::uint32_t i = 0; i < n_owners; ++i) {
    std::string owner = in.get_string();
    owner_consumed_[std::move(owner)] = in.get<double>();
  }

  const auto n_events = in.get<std::uint32_t>();
  for (std::uint32_t i = 0; i < n_events; ++i) {
    PendingEvent event;
    event.time = in.get<Seconds>();
    event.kind = in.get<std::uint8_t>();
    event.campaign = in.get<CampaignId>();
    event.cluster = in.get<ClusterId>();
    event.group = in.get<int>();
    event.scenario = in.get<ScenarioId>();
    event.month = in.get<MonthIndex>();
    if (event.kind != kSubmission && event.kind != kCompletion)
      refuse_snapshot("unknown event kind " + std::to_string(event.kind));
    check_campaign(event.campaign, "an event");
    // Re-derive the transient run state the snapshot deliberately omits.
    if (event.kind == kCompletion) {
      check_cluster(event.cluster, "an event");
      const auto running = scenario_running_.find(event.campaign);
      if (running == scenario_running_.end() || event.scenario < 0 ||
          static_cast<std::size_t>(event.scenario) >= running->second.size())
        refuse_snapshot("an event names scenario " +
                        std::to_string(event.scenario) +
                        " of a campaign that does not run it");
      const auto allotment = allotments_.find({event.campaign, event.cluster});
      if (allotment == allotments_.end() || event.group < 0 ||
          static_cast<std::size_t>(event.group) >=
              allotment->second.group_busy.size())
        refuse_snapshot("an event names group " + std::to_string(event.group) +
                        " outside its allotment");
      running->second[static_cast<std::size_t>(event.scenario)] = 1;
      allotment->second.group_busy[static_cast<std::size_t>(event.group)] = 1;
      ++clusters_[static_cast<std::size_t>(event.cluster)].running;
    }
    events_.insert(event);
  }
  OAGRID_REQUIRE(in.exhausted(), "trailing bytes in snapshot payload");

  // The queue section precedes owner_consumed_ in the payload, so the queue
  // and its priority classes are rebuilt (in submission order) only now
  // that the priorities' inputs are in.
  for (const CampaignId id : queued) enqueue(id);
  invalidate_plan();
}

// --- introspection ---------------------------------------------------------

std::vector<CampaignId> CampaignService::campaign_ids() const {
  std::vector<CampaignId> ids;
  ids.reserve(campaigns_.size());
  for (const auto& [id, state] : campaigns_) ids.push_back(id);
  return ids;
}

const CampaignState& CampaignService::campaign(CampaignId id) const {
  const auto it = campaigns_.find(id);
  OAGRID_REQUIRE(it != campaigns_.end(), "unknown campaign id");
  return it->second;
}

std::vector<Lease> CampaignService::active_leases() const {
  std::vector<Lease> leases;
  for (const auto& [key, allotment] : allotments_)
    leases.push_back({key.first, key.second, allotment.procs});
  return leases;  // map order is already (campaign, cluster)
}

}  // namespace oagrid::service
