#pragma once
/// \file eval_cache.hpp
/// \brief Shared memoization cache for ensemble-simulation makespans.
///
/// Every search layer in the repo — local search, exhaustive optimal search,
/// the heuristics sweep, the service's analytic/DES estimators — ultimately
/// asks the same question: "what is the makespan of partition P of cluster C
/// under workload W?" The simulator is deterministic, so the answer is a pure
/// function of (C, P, W, options) and can be memoized across callers: the
/// sweep warms the cache for the local search, a service estimator re-asks
/// questions the CLI already answered, and repeated neighborhoods in local
/// search become O(1) after their first visit.
///
/// Design:
///  * Keys are by value (EvalKey): a 64-bit content signature of the cluster
///    (name excluded — only the numbers that influence the simulation), the
///    canonicalized partition, the workload (NS, NM), the post policy/pool,
///    restart hand-off, and the perturbation model (seed
///    normalized to zero when the model is inactive, so "no perturbation,
///    seed 1" and "no perturbation, seed 7" share an entry). Cluster
///    identity is the signature, not the object address, so temporaries from
///    Cluster::with_resources() hit naturally.
///  * The store is sharded 16 ways (shard = key hash, top bits) with a plain
///    mutex + unordered_map per shard: lookups from parallel search workers
///    touch different shards with high probability and the critical section
///    is a probe, not a simulation.
///  * Capacity is bounded per shard. A full shard evicts an arbitrary
///    resident entry (random replacement via unordered_map iteration order).
///    Memoized makespans are cheap to recompute, so a simple bounded policy
///    beats LRU bookkeeping on the hot path.
///  * Hit/miss/insert/evict counts are kept per shard (read via stats()) and
///    mirrored into obs::metrics() counters `evalcache.*` whenever
///    observability is on, so `--metrics` surfaces the hit rate of a run.
///
/// Correctness caveat, by design: two distinct clusters whose signatures
/// collide (probability ~2^-64 per pair under FNV-1a) would alias. The cache
/// only ever stores makespans of deterministic simulations, so the blast
/// radius of the astronomically unlikely collision is one wrong lookup, not
/// corruption.

#include <atomic>
#include <cstdint>
#include <optional>
#include <vector>

#include "appmodel/ensemble.hpp"
#include "common/types.hpp"
#include "platform/cluster.hpp"
#include "sched/group_schedule.hpp"
#include "sim/ensemble_sim.hpp"

namespace oagrid::sim {

/// Value identity of one simulation question. Equality is exact on every
/// field; the cluster participates via its content signature.
struct EvalKey {
  std::uint64_t cluster_sig = 0;
  std::vector<ProcCount> sizes;  ///< canonical (sorted descending)
  Count scenarios = 0;           ///< NS
  Count months = 0;              ///< NM
  ProcCount post_pool = 0;
  std::uint8_t post_policy = 0;
  Seconds restart_handoff = 0.0;  ///< inter-month data stall (net-aware runs)
  double duration_jitter = 0.0;
  double failure_probability = 0.0;
  std::uint64_t seed = 0;  ///< 0 whenever the perturbation model is inactive
  /// Signature of the failure injection (model content + seed + cluster +
  /// recovery policy + checkpoint cadence + staging cost); 0 whenever
  /// FaultOptions is inactive, so a failure-run makespan can never be served
  /// for a clean key or vice versa.
  std::uint64_t fault_sig = 0;

  [[nodiscard]] bool operator==(const EvalKey&) const = default;
};

struct EvalKeyHash {
  [[nodiscard]] std::size_t operator()(const EvalKey& key) const noexcept;
};

/// FNV-1a over the cluster's simulation-relevant content: resources,
/// min_group, the T[G] table, and the post time. The name is cosmetic and
/// excluded (renamed copies of a cluster share cache entries).
[[nodiscard]] std::uint64_t cluster_signature(const platform::Cluster& cluster);

/// Builds the canonical key for simulating `schedule` on `cluster` over
/// `ensemble`. Only the simulation-relevant subset of `options` enters the
/// key (restart hand-off, perturbation and failure models); trace capture
/// must be handled by the caller — see cached_makespan().
[[nodiscard]] EvalKey make_eval_key(const platform::Cluster& cluster,
                                    const sched::GroupSchedule& schedule,
                                    const appmodel::Ensemble& ensemble,
                                    const SimOptions& options = {});

/// Aggregate view of cache effectiveness.
struct EvalCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  std::size_t entries = 0;

  [[nodiscard]] double hit_rate() const noexcept {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) /
                                  static_cast<double>(total);
  }
};

/// Thread-safe, bounded, sharded makespan memo. All methods may be called
/// concurrently. Copying is disabled: share by reference (or use the process
/// global eval_cache()).
class EvalCache {
 public:
  static constexpr std::size_t kShardCount = 16;
  static constexpr std::size_t kDefaultCapacity = 1 << 20;

  /// `max_entries` is a global bound, split evenly across shards (minimum
  /// one entry per shard).
  explicit EvalCache(std::size_t max_entries = kDefaultCapacity);
  EvalCache(const EvalCache&) = delete;
  EvalCache& operator=(const EvalCache&) = delete;
  ~EvalCache();

  /// Returns the memoized makespan, or nullopt on a miss. Counts a hit or a
  /// miss either way.
  [[nodiscard]] std::optional<Seconds> lookup(const EvalKey& key);

  /// Memoizes `makespan` under `key`, evicting an arbitrary entry if the
  /// target shard is full. Racing inserts of the same key keep the first
  /// value (identical by determinism, so the race is benign).
  void insert(const EvalKey& key, Seconds makespan);

  /// Drops every entry. Statistics are preserved (they describe traffic, not
  /// contents); tests use reset_stats() for isolation.
  void clear();

  void reset_stats();

  [[nodiscard]] EvalCacheStats stats() const;
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

 private:
  struct Shard;
  Shard& shard_for(const EvalKey& key) const;

  Shard* shards_;  ///< array of kShardCount (pimpl keeps std headers out)
  std::size_t capacity_ = 0;
  std::size_t per_shard_capacity_ = 0;
  /// Total resident entries across shards, maintained on insert/evict/clear
  /// so the obs gauge can report a whole-cache figure without locking every
  /// shard on the hot path.
  std::atomic<std::size_t> entry_count_{0};
};

/// The process-wide cache shared by every search layer. Unbounded lifetime;
/// sized at kDefaultCapacity.
[[nodiscard]] EvalCache& eval_cache();

/// Simulates `schedule` on `cluster` through the global cache and returns
/// the makespan. Requests that capture a trace bypass the cache entirely (a
/// cache hit would silently drop the trace). For any question that needs
/// more than the makespan, call simulate_ensemble directly.
[[nodiscard]] Seconds cached_makespan(const platform::Cluster& cluster,
                                      const sched::GroupSchedule& schedule,
                                      const appmodel::Ensemble& ensemble,
                                      const SimOptions& options = {});

}  // namespace oagrid::sim
