#pragma once
/// \file ensemble.hpp
/// \brief The experiment workload: NS independent scenarios of NM months.

#include "common/types.hpp"

namespace oagrid::appmodel {

/// Workload descriptor for one experiment ("several 1D-meshes of identical
/// DAGs"). Scenarios are independent; months within a scenario are strictly
/// ordered by restart dependencies.
struct Ensemble {
  Count scenarios = 10;  ///< NS — the paper says "around 10"
  Count months = 1800;   ///< NM — 150 years x 12 months

  /// nbtasks = NS x NM, the paper's per-kind task count.
  [[nodiscard]] Count total_tasks() const noexcept { return scenarios * months; }

  /// The paper's full experiment: 10 scenarios of 150 years.
  [[nodiscard]] static Ensemble paper_full() noexcept { return {10, 1800}; }

  /// Throws if the workload is degenerate.
  void validate() const {
    OAGRID_REQUIRE(scenarios >= 1, "need at least one scenario");
    OAGRID_REQUIRE(months >= 1, "need at least one month per scenario");
  }
};

}  // namespace oagrid::appmodel
