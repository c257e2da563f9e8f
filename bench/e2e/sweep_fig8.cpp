/// \file sweep_fig8.cpp
/// \brief sweep-fig8: one Figure-8 sweep of one cluster profile, the four
/// heuristics per resource count through sim::cached_makespan over the
/// shared pool, as `oagrid_cli sweep` runs it, from a cold cache. It is the
/// only workload that keeps the whole pool busy and the only user of the
/// basic/redistribute/all-for-main heuristics.

#include <array>
#include <vector>

#include "common/thread_pool.hpp"
#include "platform/profiles.hpp"
#include "sim/ensemble_sim.hpp"
#include "sim/eval_cache.hpp"
#include "workload.hpp"

namespace oagrid::e2e {
namespace {

constexpr std::array<sched::Heuristic, 4> kHeuristics = {
    sched::Heuristic::kBasic, sched::Heuristic::kRedistribute,
    sched::Heuristic::kAllForMain, sched::Heuristic::kKnapsack};
constexpr ProcCount kFirstR = 20;
constexpr ProcCount kStepR = 4;
constexpr std::size_t kCells = 46;  ///< R = 20..200 step 4
constexpr int kProfiles = 5;
/// One cell in this many is re-simulated uncached by the oracle.
constexpr std::size_t kCheckEvery = 10;

using Cell = std::array<Seconds, kHeuristics.size()>;

class SweepFig8 final : public Workload {
 public:
  void setup(std::uint64_t seed) override {
    rng_ = input_rng(seed, 4);
    profile_ = static_cast<int>(rng_.uniform_int(0, kProfiles - 1));
    ops_ = 0;
  }

  /// The profiles take turns; a seeded shift of 0..3 processors moves every
  /// resource count of the op, so each op sweeps 46 fresh cluster sizes at
  /// nearly the same cost.
  void next_input() override {
    profile_ = (profile_ + 1) % kProfiles;
    const auto shift = static_cast<ProcCount>(rng_.uniform_int(0, kStepR - 1));
    resources_.clear();
    for (std::size_t i = 0; i < kCells; ++i)
      resources_.push_back(kFirstR + shift +
                           static_cast<ProcCount>(i) * kStepR);
    ++ops_;
  }

  void reset_state() override { sim::eval_cache().clear(); }

  void run_entry() override {
    cells_ = parallel_transform(shared_pool(), resources_.size(),
                                [&](std::size_t i) {
                                  const auto cluster = cluster_at(i);
                                  Cell cell{};
                                  for (std::size_t h = 0; h < cell.size(); ++h)
                                    cell[h] = sim::cached_makespan(
                                        cluster,
                                        sched::make_schedule(kHeuristics[h],
                                                             cluster, ensemble_),
                                        ensemble_);
                                  return cell;
                                });
  }

  std::string check() override {
    for (std::size_t i = ops_ % kCheckEvery; i < cells_.size();
         i += kCheckEvery) {
      const platform::Cluster cluster = cluster_at(i);
      for (std::size_t h = 0; h < kHeuristics.size(); ++h) {
        const sched::GroupSchedule schedule =
            sched::make_schedule(kHeuristics[h], cluster, ensemble_);
        if (sim::simulate_ensemble(cluster, schedule, ensemble_).makespan !=
            cells_[i][h])
          return "cached makespan differs from an uncached simulation at R=" +
                 std::to_string(resources_[i]);
      }
    }
    return "";
  }

  std::string replay(obs::TraceBuffer& trace, Counts& /*counts*/) override {
    obs::Span op(&trace, "op.replay", "op");
    for (std::size_t i = 0; i < resources_.size(); ++i) {
      const platform::Cluster cluster = cluster_at(i);
      for (std::size_t h = 0; h < kHeuristics.size(); ++h) {
        sched::GroupSchedule schedule;
        {
          const bool knapsack = kHeuristics[h] == sched::Heuristic::kKnapsack;
          obs::Span span(&trace,
                         knapsack ? "knapsack.schedule" : "sched.make_schedule",
                         knapsack ? "knapsack" : "sched");
          schedule = sched::make_schedule(kHeuristics[h], cluster, ensemble_);
        }
        obs::Span span(&trace, "sim.des", "sim");
        if (sim::cached_makespan(cluster, schedule, ensemble_) != cells_[i][h])
          return "replay makespan differs at R=" +
                 std::to_string(resources_[i]);
      }
    }
    return "";
  }

  void entry_counts(Counts& /*counts*/) override {}

 private:
  [[nodiscard]] platform::Cluster cluster_at(std::size_t i) const {
    return platform::make_builtin_cluster(profile_, resources_[i]);
  }

  const appmodel::Ensemble ensemble_ = appmodel::Ensemble::paper_full();
  Rng rng_;
  int profile_ = 0;
  std::size_t ops_ = 0;
  std::vector<ProcCount> resources_;
  std::vector<Cell> cells_;
};

}  // namespace

std::unique_ptr<Workload> make_sweep_fig8() {
  return std::make_unique<SweepFig8>();
}

}  // namespace oagrid::e2e
