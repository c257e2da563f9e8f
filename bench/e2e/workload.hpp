#pragma once
/// \file workload.hpp
/// \brief One benchmark workload: seeded inputs, the op through the real
/// entry point, its correctness oracle, and the serial replay that
/// attributes the op's time to layers.

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "common/rng.hpp"
#include "obs/trace.hpp"
#include "platform/grid.hpp"

namespace oagrid::e2e {

/// Per-op layer counts of the traced run, keyed by per-layer metric name.
/// The driver sums them over the traced ops and divides by the op count.
using Counts = std::map<std::string, double>;

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds the input stream from `seed` and warms what a user would have
  /// warm. The driver times it several times per run; each call starts over
  /// from the same state.
  virtual void setup(std::uint64_t seed) = 0;

  /// Draws the next op's inputs. Untimed.
  virtual void next_input() = 0;

  /// Puts the state every execution of the current op must start from in
  /// place: the eval cache cleared for the cold workloads, a fresh journal
  /// directory for the service. Untimed.
  virtual void reset_state() = 0;

  /// The timed op, through the real entry point.
  virtual void run_entry() = 0;

  /// Oracle on the last entry output; returns "" when it is correct.
  [[nodiscard]] virtual std::string check() = 0;

  /// Serial replay of the current op through the layers' public functions
  /// in the entry point's order. Every call gets an obs::Span in `trace`
  /// named "<module>.<function>" with the module as its category, under one
  /// root span "op.replay". Returns "" when the replay's outputs equal the
  /// last entry output bit for bit.
  [[nodiscard]] virtual std::string replay(obs::TraceBuffer& trace,
                                           Counts& counts) = 0;

  /// Workload-specific counts read off the last (traced) entry output.
  virtual void entry_counts(Counts& counts) = 0;
};

/// `workdir` is scratch space for the files a workload writes (journals).
[[nodiscard]] std::unique_ptr<Workload> make_workload(
    const std::string& name, const std::string& workdir);

/// The input stream of workload number `stream` for `seed`: the same seed
/// gives every workload its own, reproducible stream.
[[nodiscard]] Rng input_rng(std::uint64_t seed, std::uint64_t stream);

/// A seeded random 5-cluster grid: cluster c uses built-in profile c with
/// 20..120 processors.
[[nodiscard]] platform::Grid random_grid(Rng& rng);

std::unique_ptr<Workload> make_fig9_cold();
std::unique_ptr<Workload> make_grid_faults();
std::unique_ptr<Workload> make_serve_journal(const std::string& workdir);
std::unique_ptr<Workload> make_sweep_fig8();

}  // namespace oagrid::e2e
