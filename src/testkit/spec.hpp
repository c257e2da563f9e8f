#pragma once
/// \file spec.hpp
/// \brief The reproducible identity of one property-test case.
///
/// Every generated test case is a *pure function* of a small flat CaseSpec:
/// a seed plus the structural dimensions of the world (cluster count,
/// workload size, which network/failure shapes are attached, the service
/// schedule length, ...). That purity is what buys the harness its two core
/// guarantees:
///
///  * one-line repro — a failure prints `tools/oagrid_proptest --seed=S
///    --case=N` (regenerate the spec from the campaign stream) and
///    `--spec=k=v,...` (the shrunk spec, verbatim), both of which rebuild
///    the exact failing world;
///  * cheap shrinking — the shrinker never mutates generated objects, it
///    mutates the *spec* (fewer clusters, fewer scenarios, no network, ...)
///    and regenerates, so every shrunk case is by construction a case the
///    generator could have produced.

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace oagrid::testkit {

/// Flat, order-insensitive description of one generated case. Field ranges
/// are enforced by clamp(); decode() accepts any subset of fields over the
/// defaults.
struct CaseSpec {
  std::uint64_t seed = 1;  ///< entropy for everything inside the case

  // Platform / workload.
  int clusters = 3;             ///< grid size, >= 1
  Count scenarios = 6;          ///< NS, >= 1
  Count months = 8;             ///< NM, >= 1
  bool divisible_tables =
      false;  ///< T[G] exact multiples of TP (closed form is then exact)

  // Data movement. 0 none, 1 free, 2 uniform, 3 renater, 4 random.
  int net_kind = 0;

  // Availability. 0 none, 1 exponential, 2 weibull, 3 trace outages,
  // 4 mixed (stochastic + outages + at most clusters-1 down markers).
  int fault_kind = 0;
  int checkpoint_months = 1;  ///< restart cadence fed to the fault DES
  int recovery = 1;           ///< fault::RecoveryPolicy underlying value
  // Scheduling.
  int heuristic = 3;  ///< sched::Heuristic underlying value

  // Service / crash explorer.
  int campaigns = 2;       ///< service schedule length (0 = no service world)
  int kills = 1;           ///< crash generations the explorer injects
  bool group_commit = true;
  Count snapshot_every = 0;

  [[nodiscard]] bool operator==(const CaseSpec&) const = default;

  /// Clamps every field into its legal range (generation never throws).
  void clamp() noexcept;

  /// Canonical `key=value,...` form, stable field order; decode(encode(s))
  /// == s for any clamped spec.
  [[nodiscard]] std::string encode() const;

  /// Parses the encode() format (any field subset, unknown keys rejected).
  /// Throws oagrid::ParseError with source "spec".
  [[nodiscard]] static CaseSpec decode(const std::string& text);
};

/// The spec of campaign case `index` under root seed `root_seed` — the
/// deterministic stream the driver and the repro command both re-derive.
[[nodiscard]] CaseSpec spec_for_case(std::uint64_t root_seed,
                                     std::uint64_t index);

/// One-step reductions of `spec`, most aggressive first (halve the workload,
/// drop whole subsystems) down to single decrements. The greedy shrinker
/// walks this list, keeping any candidate that still fails.
[[nodiscard]] std::vector<CaseSpec> shrink_candidates(const CaseSpec& spec);

}  // namespace oagrid::testkit
