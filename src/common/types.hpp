#pragma once
/// \file types.hpp
/// \brief Strong scalar types shared by every oagrid module.
///
/// The scheduling literature the paper builds on mixes three unit systems
/// (seconds of simulated time, processor counts, task counts). Using distinct
/// vocabulary types keeps formulae such as Equations 1-5 of the paper readable
/// and makes unit mistakes a compile error rather than a simulation bug.

#include <compare>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>

namespace oagrid {

/// Simulated wall-clock time, in seconds. A plain `double` wrapper: the
/// paper's benchmarked durations are integral seconds but divisions (speedup
/// models, fractional work in the knapsack objective) produce reals.
using Seconds = double;

/// Number of physical processors (cores) — the paper's `R`, `R1`, `R2`, `G`.
using ProcCount = int;

/// Number of tasks / months / scenarios — the paper's `NS`, `NM`, `nbtasks`.
using Count = long long;

/// Identifier of a scenario (independent 150-year simulation chain).
using ScenarioId = int;

/// Zero-based month index inside one scenario chain (0 .. NM-1).
using MonthIndex = int;

/// Identifier of a cluster inside a grid.
using ClusterId = int;

/// The paper's hard bounds on the moldable main task: `pcr` needs one
/// processor each for OPA, TRIP and OASIS plus 1..8 for ARPEGE.
inline constexpr ProcCount kMinGroupSize = 4;
inline constexpr ProcCount kMaxGroupSize = 11;
/// Number of admissible group sizes (the knapsack item universe).
inline constexpr int kNumGroupSizes = kMaxGroupSize - kMinGroupSize + 1;

/// Sentinel for "no makespan computable" (e.g. fewer processors than the
/// smallest admissible group).
inline constexpr Seconds kInfiniteTime = std::numeric_limits<Seconds>::infinity();

namespace detail {
/// Throws the std::invalid_argument of a failed OAGRID_REQUIRE, whose what()
/// is "oagrid: <msg> [violated: <cond>]". Out of line and cold, so a check
/// costs its caller a compare and a call on a branch laid out of the way,
/// never an inlined string concatenation and throw.
[[noreturn, gnu::cold]] void require_failed(std::string_view msg,
                                            const char* cond);
}  // namespace detail

/// Throwing precondition check used at public API boundaries. Internal
/// invariants use assert(); user-facing constructors use OAGRID_REQUIRE so a
/// misconfigured experiment fails loudly with context instead of corrupting a
/// multi-hour sweep. `msg` (a string literal or a std::string) is evaluated
/// only when the check fails.
#define OAGRID_REQUIRE(cond, msg)                           \
  do {                                                      \
    if (!(cond)) [[unlikely]]                               \
      ::oagrid::detail::require_failed((msg), #cond);       \
  } while (false)

}  // namespace oagrid
