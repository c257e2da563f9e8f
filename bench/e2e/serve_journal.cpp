/// \file serve_journal.cpp
/// \brief serve-journal: one campaign-service lifetime at high tenancy with
/// the journal on (group commit, periodic snapshots), then recover() of that
/// journal on a fresh instance. This is the control plane with no DES:
/// queue, leases and estimator, with journal writes in run() beside journal
/// reads in recover(), so a gain for one that costs the other shows.

#include <filesystem>
#include <memory>
#include <vector>

#include "obs/obs.hpp"
#include "platform/profiles.hpp"
#include "service/service.hpp"
#include "workload.hpp"

namespace oagrid::e2e {
namespace {

/// BM_ServiceHighTenancy's load shape (small campaigns from 16 owners under
/// weighted fair share, 16 active), with seeded sizes and arrivals. A
/// lifetime's cost grows about quadratically with its campaign count
/// (1000: ~50 ms, 2000: ~190 ms, 5000: ~1.1 s on a 4-vCPU x86 VM), so 1000
/// already carries that superlinear part while a run holds enough
/// lifetimes for a p90.
constexpr std::size_t kCampaigns = 1000;
constexpr long long kOwners = 16;

struct Submission {
  service::CampaignSpec spec;
  Seconds at = 0.0;
};

/// The AnalyticEstimator behind a span per call, passed to the service
/// through ServiceOptions::estimator.
class TimedEstimator final : public service::PerfEstimator {
 public:
  explicit TimedEstimator(obs::TraceBuffer& trace) : trace_(trace) {}

  sched::PerformanceVector vector(const platform::Cluster& cluster,
                                  Count scenarios, Count months,
                                  sched::Heuristic heuristic) override {
    obs::Span span(&trace_, "service.estimate", "service");
    ++calls_;
    return inner_.vector(cluster, scenarios, months, heuristic);
  }

  [[nodiscard]] std::size_t calls() const noexcept { return calls_; }

 private:
  obs::TraceBuffer& trace_;
  service::AnalyticEstimator inner_;
  std::size_t calls_ = 0;
};

class ServeJournal final : public Workload {
 public:
  explicit ServeJournal(const std::string& workdir)
      : dir_((std::filesystem::path(workdir) / "serve-journal").string()) {
    options_.policy = service::QueuePolicy::kWeightedFairShare;
    options_.max_active = 16;
    options_.queue_capacity = kCampaigns + 1;
    options_.journal_dir = dir_;
    options_.group_commit = true;
    options_.snapshot_every = 4096;
  }

  ~ServeJournal() override {
    live_.reset();
    recovered_.reset();
    std::error_code ignored;
    std::filesystem::remove_all(dir_, ignored);
  }
  ServeJournal(const ServeJournal&) = delete;
  ServeJournal& operator=(const ServeJournal&) = delete;

  void setup(std::uint64_t seed) override { rng_ = input_rng(seed, 3); }

  void next_input() override {
    load_.clear();
    Seconds at = 0.0;
    for (std::size_t i = 0; i < kCampaigns; ++i) {
      Submission s;
      s.spec.owner = "tenant-" + std::to_string(rng_.uniform_int(0, kOwners - 1));
      s.spec.weight = static_cast<double>(rng_.uniform_int(1, 3));
      s.spec.scenarios = rng_.uniform_int(1, 2);
      s.spec.months = 1 + 2 * rng_.uniform_int(0, 1);
      at += rng_.uniform(0.0, 60.0);
      s.at = at;
      load_.push_back(std::move(s));
    }
  }

  void reset_state() override {
    live_.reset();
    recovered_.reset();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }

  void run_entry() override {
    live_ = std::make_unique<service::CampaignService>(grid_, options_);
    for (const Submission& s : load_) (void)live_->submit(s.spec, s.at);
    if (!live_->run()) throw std::runtime_error("service reported a kill");
    // Read before recovery, so flushes and records cover the same instance.
    if (obs::enabled())
      live_flushes_ = obs::metrics().counter("journal.flushes").value();
    recovered_ = std::make_unique<service::CampaignService>(grid_, options_);
    (void)recovered_->recover();
    if (!recovered_->run())
      throw std::runtime_error("recovered service reported a kill");
  }

  std::string check() override {
    for (const service::CampaignId id : live_->campaign_ids()) {
      const service::CampaignState& state = live_->campaign(id);
      if (state.status != service::CampaignStatus::kCompleted ||
          state.months_done != state.total_months())
        return "campaign " + std::to_string(id) + " did not complete";
    }
    if (live_->campaign_ids().size() != kCampaigns)
      return "not every submission became a campaign";
    live_signature_ = live_->state_signature();
    if (recovered_->state_signature() != live_signature_)
      return "recovered state_signature differs from the live one";
    return "";
  }

  std::string replay(obs::TraceBuffer& trace, Counts& counts) override {
    obs::Span op(&trace, "op.replay", "op");
    TimedEstimator estimator(trace);
    service::ServiceOptions options = options_;
    options.estimator = &estimator;
    std::unique_ptr<service::CampaignService> live;
    {
      obs::Span span(&trace, "service.submit", "service");
      live = std::make_unique<service::CampaignService>(grid_, options);
      for (const Submission& s : load_) (void)live->submit(s.spec, s.at);
    }
    {
      obs::Span span(&trace, "service.run", "service");
      if (!live->run()) return "replayed service reported a kill";
    }
    std::unique_ptr<service::CampaignService> recovered;
    {
      obs::Span span(&trace, "service.recover", "service");
      recovered = std::make_unique<service::CampaignService>(grid_, options);
      (void)recovered->recover();
      if (!recovered->run()) return "replayed recovery reported a kill";
    }
    counts["service.estimate.calls"] += static_cast<double>(estimator.calls());
    if (live->state_signature() != live_signature_)
      return "replay state_signature differs";
    if (recovered->state_signature() != live_signature_)
      return "replay recovered state_signature differs";
    return "";
  }

  void entry_counts(Counts& counts) override {
    counts["service.journal.records"] +=
        static_cast<double>(live_->journal_seq());
    counts["service.journal.flushes"] += static_cast<double>(live_flushes_);
    counts["service.lease_changes"] +=
        static_cast<double>(live_->lease_changes());
    counts["service.plan_reuse"] += static_cast<double>(live_->plan_reuse());
  }

 private:
  const platform::Grid grid_ = platform::make_builtin_grid(25).prefix(3);
  const std::string dir_;
  service::ServiceOptions options_;
  Rng rng_;
  std::vector<Submission> load_;
  std::unique_ptr<service::CampaignService> live_;
  std::unique_ptr<service::CampaignService> recovered_;
  std::uint64_t live_signature_ = 0;
  std::uint64_t live_flushes_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_serve_journal(const std::string& workdir) {
  return std::make_unique<ServeJournal>(workdir);
}

}  // namespace oagrid::e2e
