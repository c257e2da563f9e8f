#pragma once
/// \file volumes.hpp
/// \brief Campaign data-volume accounting — the §2 storage and transfer
/// story ("Data exchanges between two consecutive monthly simulations ...
/// reaches 120 MB"; compress_diags exists "to facilitate storage and
/// transfers").
///
/// The paper quantifies only the restart volume; diagnostic sizes are
/// parameters with defaults matching the toy pipeline's measured 7-8x
/// compression (bench_pipeline_volumes) scaled to the era's grids.

#include "appmodel/ensemble.hpp"
#include "appmodel/tasks.hpp"

namespace oagrid::appmodel {

struct VolumeParams {
  double restart_mb = kInterMonthDataMb;  ///< per month (paper: 120 MB)
  double raw_diag_mb = 40.0;              ///< cof output per month
  double compression_ratio = 7.5;         ///< cd's reduction factor
};

struct CampaignVolumes {
  double restart_transfer_mb = 0.0;  ///< inter-month restart traffic
  double raw_diag_mb = 0.0;          ///< diagnostics before compression
  double compressed_diag_mb = 0.0;   ///< what actually gets stored/shipped
  double archived_mb = 0.0;          ///< end state: compressed + final restarts
};

/// Totals for a whole campaign. Restart traffic counts NM-1 hand-offs per
/// scenario (the last month's restart is archived, not transferred onward).
[[nodiscard]] CampaignVolumes campaign_volumes(const Ensemble& ensemble,
                                               const VolumeParams& params = {});

}  // namespace oagrid::appmodel
