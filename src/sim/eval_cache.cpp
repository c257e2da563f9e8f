#include "sim/eval_cache.hpp"

#include <algorithm>
#include <cstring>
#include <mutex>
#include <unordered_map>

#include "common/hash.hpp"
#include "obs/obs.hpp"

namespace oagrid::sim {
namespace {

/// Mirrors a cache event into the obs registry when observability is on.
/// Function-local statics cache the registry lookups; references stay valid
/// for the registry's lifetime.
struct ObsMirror {
  static void hit() {
    if (!obs::enabled()) return;
    static obs::Counter& c = obs::metrics().counter("evalcache.hits");
    c.add();
  }
  static void miss() {
    if (!obs::enabled()) return;
    static obs::Counter& c = obs::metrics().counter("evalcache.misses");
    c.add();
  }
  static void insertion(std::size_t entries_now) {
    if (!obs::enabled()) return;
    static obs::Counter& c = obs::metrics().counter("evalcache.insertions");
    static obs::Gauge& g = obs::metrics().gauge("evalcache.entries");
    c.add();
    g.set(static_cast<double>(entries_now));
  }
  static void eviction() {
    if (!obs::enabled()) return;
    static obs::Counter& c = obs::metrics().counter("evalcache.evictions");
    c.add();
  }
};

}  // namespace

std::size_t EvalKeyHash::operator()(const EvalKey& key) const noexcept {
  Fnv1a h;
  h.u64(key.cluster_sig);
  for (const ProcCount s : key.sizes) h.i64(s);
  h.u64(0x5e5aULL);  // domain separator after the variable-length sizes
  h.i64(key.scenarios);
  h.i64(key.months);
  h.i64(key.post_pool);
  h.u64(static_cast<std::uint64_t>(key.post_policy));
  h.f64(key.restart_handoff);
  h.f64(key.duration_jitter);
  h.f64(key.failure_probability);
  h.u64(key.seed);
  h.u64(key.fault_sig);
  return static_cast<std::size_t>(h.state);
}

EvalKey make_eval_key(const platform::Cluster& cluster,
                      const sched::GroupSchedule& schedule,
                      const appmodel::Ensemble& ensemble,
                      const SimOptions& options) {
  EvalKey key;
  key.cluster_sig = cluster.signature();
  key.sizes = schedule.group_sizes;
  std::sort(key.sizes.begin(), key.sizes.end(), std::greater<>());
  key.scenarios = ensemble.scenarios;
  key.months = ensemble.months;
  key.post_pool = schedule.post_pool;
  key.post_policy = static_cast<std::uint8_t>(schedule.post_policy);
  key.restart_handoff = options.restart_handoff;
  if (options.perturbation.active()) {
    key.duration_jitter = options.perturbation.duration_jitter;
    key.failure_probability = options.perturbation.failure_probability;
    key.seed = options.perturbation.seed;
  }
  if (options.fault.active()) {
    Fnv1a f;
    f.u64(options.fault.model->signature());
    f.i64(options.fault.cluster);
    f.u64(static_cast<std::uint64_t>(options.fault.recovery));
    f.i64(options.fault.checkpoint_months);
    f.f64(options.fault.migrate_staging);
    key.fault_sig = f.state;
  }
  return key;
}

struct EvalCache::Shard {
  mutable std::mutex mutex;
  std::unordered_map<EvalKey, Seconds, EvalKeyHash> map;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
};

EvalCache::EvalCache(std::size_t max_entries)
    : shards_(new Shard[kShardCount]),
      capacity_(std::max<std::size_t>(max_entries, kShardCount)),
      per_shard_capacity_(std::max<std::size_t>(max_entries / kShardCount, 1)) {
}

EvalCache::~EvalCache() { delete[] shards_; }

EvalCache::Shard& EvalCache::shard_for(const EvalKey& key) const {
  // Top bits pick the shard; unordered_map consumes the low bits, so the two
  // uses of the hash stay independent.
  const std::size_t h = EvalKeyHash{}(key);
  return shards_[(h >> 58) % kShardCount];
}

std::optional<Seconds> EvalCache::lookup(const EvalKey& key) {
  Shard& shard = shard_for(key);
  {
    const std::scoped_lock lock(shard.mutex);
    const auto it = shard.map.find(key);
    if (it != shard.map.end()) {
      ++shard.hits;
      ObsMirror::hit();
      return it->second;
    }
    ++shard.misses;
  }
  ObsMirror::miss();
  return std::nullopt;
}

void EvalCache::insert(const EvalKey& key, Seconds makespan) {
  Shard& shard = shard_for(key);
  bool evicted = false;
  bool inserted = false;
  {
    const std::scoped_lock lock(shard.mutex);
    if (shard.map.size() >= per_shard_capacity_ &&
        shard.map.find(key) == shard.map.end()) {
      shard.map.erase(shard.map.begin());
      ++shard.evictions;
      evicted = true;
    }
    inserted = shard.map.emplace(key, makespan).second;
    ++shard.insertions;
  }
  std::size_t entries_now = entry_count_.load(std::memory_order_relaxed);
  if (inserted && !evicted)
    entries_now = entry_count_.fetch_add(1, std::memory_order_relaxed) + 1;
  else if (evicted && !inserted)
    entries_now = entry_count_.fetch_sub(1, std::memory_order_relaxed) - 1;
  if (evicted) ObsMirror::eviction();
  ObsMirror::insertion(entries_now);
}

void EvalCache::clear() {
  for (std::size_t i = 0; i < kShardCount; ++i) {
    const std::scoped_lock lock(shards_[i].mutex);
    shards_[i].map.clear();
  }
  entry_count_.store(0, std::memory_order_relaxed);
}

void EvalCache::reset_stats() {
  for (std::size_t i = 0; i < kShardCount; ++i) {
    const std::scoped_lock lock(shards_[i].mutex);
    shards_[i].hits = shards_[i].misses = 0;
    shards_[i].insertions = shards_[i].evictions = 0;
  }
}

EvalCacheStats EvalCache::stats() const {
  EvalCacheStats out;
  for (std::size_t i = 0; i < kShardCount; ++i) {
    const std::scoped_lock lock(shards_[i].mutex);
    out.hits += shards_[i].hits;
    out.misses += shards_[i].misses;
    out.insertions += shards_[i].insertions;
    out.evictions += shards_[i].evictions;
    out.entries += shards_[i].map.size();
  }
  return out;
}

EvalCache& eval_cache() {
  static EvalCache cache;
  return cache;
}

Seconds cached_makespan(const platform::Cluster& cluster,
                        const sched::GroupSchedule& schedule,
                        const appmodel::Ensemble& ensemble,
                        const SimOptions& options) {
  // A traced request must actually run: a hit would skip the trace the
  // caller asked for.
  if (options.capture_trace)
    return simulate_ensemble(cluster, schedule, ensemble, options).makespan;
  EvalCache& cache = eval_cache();
  const EvalKey key = make_eval_key(cluster, schedule, ensemble, options);
  if (const std::optional<Seconds> hit = cache.lookup(key)) return *hit;
  const Seconds makespan =
      simulate_ensemble(cluster, schedule, ensemble, options).makespan;
  cache.insert(key, makespan);
  return makespan;
}

}  // namespace oagrid::sim
