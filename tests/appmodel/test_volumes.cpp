#include "appmodel/volumes.hpp"

#include <gtest/gtest.h>

namespace oagrid::appmodel {
namespace {

TEST(Volumes, PaperScaleRestartTraffic) {
  // 10 scenarios x 1799 hand-offs x 120 MB ~ 2.16 TB over 150 years.
  const CampaignVolumes v = campaign_volumes(Ensemble::paper_full());
  EXPECT_DOUBLE_EQ(v.restart_transfer_mb, 10.0 * 1799.0 * 120.0);
}

TEST(Volumes, CompressionSavesMost) {
  const CampaignVolumes v = campaign_volumes(Ensemble{10, 1800});
  EXPECT_LT(v.compressed_diag_mb, 0.2 * v.raw_diag_mb);
  EXPECT_DOUBLE_EQ(v.compressed_diag_mb * 7.5, v.raw_diag_mb);
}

TEST(Volumes, SingleMonthHasNoRestartTraffic) {
  const CampaignVolumes v = campaign_volumes(Ensemble{4, 1});
  EXPECT_DOUBLE_EQ(v.restart_transfer_mb, 0.0);
  EXPECT_GT(v.archived_mb, 0.0);
}

TEST(Volumes, ArchiveIncludesFinalRestarts) {
  VolumeParams params;
  params.raw_diag_mb = 0.0;  // isolate the restart contribution
  const CampaignVolumes v = campaign_volumes(Ensemble{3, 5}, params);
  EXPECT_DOUBLE_EQ(v.archived_mb, 3.0 * 120.0);
}

TEST(Volumes, Validation) {
  VolumeParams bad;
  bad.compression_ratio = 0.5;
  EXPECT_THROW((void)campaign_volumes(Ensemble{2, 2}, bad),
               std::invalid_argument);
  bad = VolumeParams{};
  bad.restart_mb = -1;
  EXPECT_THROW((void)campaign_volumes(Ensemble{2, 2}, bad),
               std::invalid_argument);
}

}  // namespace
}  // namespace oagrid::appmodel
