#include "fault/failure.hpp"

#include <algorithm>
#include <cmath>

#include "common/hash.hpp"

namespace oagrid::fault {

namespace {

/// Inverse-CDF draws. Both distributions are parameterised so that the mean
/// interarrival equals the requested MTBF: exponential rate 1/MTBF; Weibull
/// scale lambda = MTBF / Gamma(1 + 1/shape).
double draw_exponential(Rng& rng, double mean) noexcept {
  // uniform() is in [0, 1); 1-u is in (0, 1] so the log is finite.
  return -mean * std::log(1.0 - rng.uniform());
}

double draw_weibull(Rng& rng, double shape, double mtbf) noexcept {
  const double scale = mtbf / std::tgamma(1.0 + 1.0 / shape);
  return scale * std::pow(-std::log(1.0 - rng.uniform()), 1.0 / shape);
}

/// Decorrelates the per-unit streams: same SplitMix64 finalizer used by the
/// Rng seeding path, applied to (seed, cluster, unit) mixed together.
std::uint64_t mix(std::uint64_t z) noexcept {
  z += 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::uint64_t unit_seed(std::uint64_t seed, ClusterId cluster, int unit) noexcept {
  std::uint64_t s = mix(seed);
  s = mix(s ^ (static_cast<std::uint64_t>(static_cast<std::uint32_t>(cluster)) << 32));
  s = mix(s ^ static_cast<std::uint64_t>(static_cast<std::uint32_t>(unit)));
  return s;
}

}  // namespace

const char* to_string(RecoveryPolicy policy) noexcept {
  switch (policy) {
    case RecoveryPolicy::kWaitForRepair:
      return "wait";
    case RecoveryPolicy::kRescheduleInCluster:
      return "reschedule";
    case RecoveryPolicy::kMigrateWithState:
      return "migrate";
  }
  return "?";
}

RecoveryPolicy recovery_policy_from(const std::string& name) {
  if (name == "wait") return RecoveryPolicy::kWaitForRepair;
  if (name == "reschedule") return RecoveryPolicy::kRescheduleInCluster;
  if (name == "migrate") return RecoveryPolicy::kMigrateWithState;
  throw std::invalid_argument("oagrid: unknown recovery policy '" + name +
                              "' (expected wait|reschedule|migrate)");
}

double FailureProcess::availability() const noexcept {
  switch (kind) {
    case ProcessKind::kNone:
      return 1.0;
    case ProcessKind::kDown:
      return 0.0;
    case ProcessKind::kExponential:
    case ProcessKind::kWeibull:
      return mtbf / (mtbf + mttr);
  }
  return 1.0;
}

FailureModel::FailureModel(int clusters) {
  OAGRID_REQUIRE(clusters >= 0, "failure model needs clusters >= 0");
  processes_.resize(static_cast<std::size_t>(clusters));
}

namespace {
FailureProcess& process_at(std::vector<FailureProcess>& processes, ClusterId cluster) {
  OAGRID_REQUIRE(cluster >= 0 && cluster < static_cast<ClusterId>(processes.size()),
                 "cluster id out of range for failure model");
  return processes[static_cast<std::size_t>(cluster)];
}
}  // namespace

void FailureModel::set_exponential(ClusterId cluster, double mtbf, double mttr) {
  OAGRID_REQUIRE(mtbf > 0.0, "MTBF must be positive");
  OAGRID_REQUIRE(mttr >= 0.0, "MTTR must be non-negative");
  auto& p = process_at(processes_, cluster);
  p.kind = ProcessKind::kExponential;
  p.mtbf = mtbf;
  p.mttr = mttr;
  p.shape = 1.0;
}

void FailureModel::set_weibull(ClusterId cluster, double shape, double mtbf,
                               double mttr) {
  OAGRID_REQUIRE(shape > 0.0, "Weibull shape must be positive");
  OAGRID_REQUIRE(mtbf > 0.0, "MTBF must be positive");
  OAGRID_REQUIRE(mttr >= 0.0, "MTTR must be non-negative");
  auto& p = process_at(processes_, cluster);
  p.kind = ProcessKind::kWeibull;
  p.mtbf = mtbf;
  p.mttr = mttr;
  p.shape = shape;
}

void FailureModel::set_down(ClusterId cluster) {
  process_at(processes_, cluster).kind = ProcessKind::kDown;
}

void FailureModel::add_outage(ClusterId cluster, Seconds start, Seconds duration) {
  OAGRID_REQUIRE(start >= 0.0, "outage start must be non-negative");
  OAGRID_REQUIRE(duration > 0.0, "outage duration must be positive");
  auto& p = process_at(processes_, cluster);
  Outage o{start, duration};
  auto it = std::upper_bound(
      p.outages.begin(), p.outages.end(), o,
      [](const Outage& a, const Outage& b) { return a.start < b.start; });
  p.outages.insert(it, o);
}

const FailureProcess& FailureModel::process(ClusterId cluster) const {
  OAGRID_REQUIRE(cluster >= 0 && cluster < cluster_count(),
                 "cluster id out of range for failure model");
  return processes_[static_cast<std::size_t>(cluster)];
}

bool FailureModel::active() const noexcept {
  for (const auto& p : processes_) {
    if (p.active()) return true;
  }
  return false;
}

bool FailureModel::cluster_active(ClusterId cluster) const {
  if (cluster < 0 || cluster >= cluster_count()) return false;
  return processes_[static_cast<std::size_t>(cluster)].active();
}

std::uint64_t FailureModel::signature() const noexcept {
  Fnv1a f{kFnv1aShortBasis};
  f.u64(seed_);
  f.u64(static_cast<std::uint64_t>(processes_.size()));
  for (const auto& p : processes_) {
    f.u64(static_cast<std::uint64_t>(p.kind));
    f.f64(p.mtbf);
    f.f64(p.mttr);
    f.f64(p.shape);
    f.u64(static_cast<std::uint64_t>(p.outages.size()));
    for (const auto& o : p.outages) {
      f.f64(o.start);
      f.f64(o.duration);
    }
  }
  return f.state;
}

FailureModel FailureModel::uniform_exponential(int clusters, double mtbf,
                                               double mttr, std::uint64_t seed) {
  FailureModel model(clusters);
  for (ClusterId c = 0; c < clusters; ++c) {
    model.set_exponential(c, mtbf, mttr);
  }
  model.set_seed(seed);
  return model;
}

OutageStream::OutageStream(const FailureModel& model, ClusterId cluster, int unit)
    : process_(cluster >= 0 && cluster < model.cluster_count()
                   ? &model.process(cluster)
                   : nullptr),
      rng_(unit_seed(model.seed(), cluster, unit)) {
  if (process_ != nullptr && !process_->active()) process_ = nullptr;
}

void OutageStream::refill_stochastic() {
  if (pending_.has_value()) return;
  switch (process_->kind) {
    case ProcessKind::kNone:
      return;
    case ProcessKind::kDown:
      // One outage covering the rest of time: the unit never comes back.
      pending_ = Outage{clock_, kInfiniteTime};
      return;
    case ProcessKind::kExponential:
      clock_ += draw_exponential(rng_, process_->mtbf);
      break;
    case ProcessKind::kWeibull:
      clock_ += draw_weibull(rng_, process_->shape, process_->mtbf);
      break;
  }
  const Seconds repair =
      process_->mttr > 0.0 ? draw_exponential(rng_, process_->mttr) : 0.0;
  pending_ = Outage{clock_, repair};
  clock_ += repair;
}

std::optional<Outage> OutageStream::next(Seconds t) {
  if (process_ == nullptr) return std::nullopt;
  for (;;) {
    // Candidate trace window (cluster-wide) vs candidate stochastic window
    // (unit-private): deliver whichever starts first at-or-after t.
    refill_stochastic();
    const Outage* trace = trace_pos_ < process_->outages.size()
                              ? &process_->outages[trace_pos_]
                              : nullptr;
    const bool take_trace =
        trace != nullptr &&
        (!pending_.has_value() || trace->start <= pending_->start);
    if (take_trace) {
      Outage o = *trace;
      ++trace_pos_;
      if (o.start >= t) return o;
      continue;  // window opened while the unit was already down; skip it
    }
    if (!pending_.has_value()) return std::nullopt;
    Outage o = *pending_;
    pending_.reset();
    // A permanent outage covers all of time; clamp instead of skipping so a
    // query after its start still learns the unit is gone.
    if (o.duration >= kInfiniteTime) return Outage{std::max(o.start, t), kInfiniteTime};
    if (o.start >= t) return o;
  }
}

AvailabilityTracker::AvailabilityTracker(const FailureModel& model,
                                         ClusterId cluster, int unit)
    : stream_(model, cluster, unit) {}

double AvailabilityTracker::down_fraction(Seconds t0, Seconds t1) {
  if (t1 <= t0) return 0.0;
  if (permanently_down_) return 1.0;
  Seconds down = 0.0;
  // Portion of an earlier outage that spills into this window.
  if (down_until_ > t0) down += std::min(down_until_, t1) - t0;
  Seconds cursor = std::max(t0, down_until_);
  for (;;) {
    if (!pending_.has_value()) pending_ = stream_.next(cursor);
    if (!pending_.has_value()) break;
    if (pending_->start >= t1) break;  // starts after this window; keep it
    const Outage o = *pending_;
    pending_.reset();
    if (o.duration >= kInfiniteTime) {
      permanently_down_ = true;
      down += t1 - std::max(o.start, t0);
      break;
    }
    const Seconds end = o.start + o.duration;
    down += std::min(end, t1) - std::max(o.start, t0);
    down_until_ = std::max(down_until_, end);
    cursor = std::max(cursor, end);
  }
  return std::min(1.0, down / (t1 - t0));
}

}  // namespace oagrid::fault
