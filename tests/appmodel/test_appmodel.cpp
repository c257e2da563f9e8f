#include <gtest/gtest.h>

#include <stdexcept>

#include "appmodel/ensemble.hpp"
#include "appmodel/month.hpp"
#include "appmodel/tasks.hpp"

namespace oagrid::appmodel {
namespace {

TEST(Tasks, PaperDurations) {
  // Figure 1 of the paper.
  EXPECT_DOUBLE_EQ(reference_duration(TaskKind::kConcatenateAtmosphericInputFiles), 1.0);
  EXPECT_DOUBLE_EQ(reference_duration(TaskKind::kModifyParameters), 1.0);
  EXPECT_DOUBLE_EQ(reference_duration(TaskKind::kProcessCoupledRun), 1260.0);
  EXPECT_DOUBLE_EQ(reference_duration(TaskKind::kConvertOutputFormat), 60.0);
  EXPECT_DOUBLE_EQ(reference_duration(TaskKind::kExtractMinimumInformation), 60.0);
  EXPECT_DOUBLE_EQ(reference_duration(TaskKind::kCompressDiags), 60.0);
}

TEST(Tasks, FusedDurationsAreSums) {
  EXPECT_DOUBLE_EQ(reference_duration(TaskKind::kFusedMain), 1262.0);
  EXPECT_DOUBLE_EQ(reference_duration(TaskKind::kFusedPost), 180.0);
}

TEST(Tasks, Names) {
  EXPECT_EQ(short_name(TaskKind::kProcessCoupledRun), "pcr");
  EXPECT_EQ(long_name(TaskKind::kProcessCoupledRun), "process_coupled_run");
  EXPECT_EQ(short_name(TaskKind::kFusedPost), "post");
}

TEST(Tasks, MoldabilityFlags) {
  EXPECT_TRUE(is_moldable(TaskKind::kProcessCoupledRun));
  EXPECT_TRUE(is_moldable(TaskKind::kFusedMain));
  EXPECT_FALSE(is_moldable(TaskKind::kConvertOutputFormat));
  EXPECT_FALSE(is_moldable(TaskKind::kFusedPost));
}

TEST(MonthDag, StructureMatchesFigure1) {
  const MonthDag month = make_month_dag();
  EXPECT_EQ(month.graph.node_count(), 6);
  EXPECT_EQ(month.graph.edge_count(), 5u);
  // Entries: caif and mp; exit: cd.
  const auto entries = month.graph.entry_nodes();
  EXPECT_EQ(entries.size(), 2u);
  EXPECT_EQ(month.graph.exit_nodes(), std::vector<dag::NodeId>{month.cd});
  // pcr is the only moldable node, bounded by the paper's [4, 11].
  const dag::TaskSpec& pcr = month.graph.task(month.pcr);
  EXPECT_EQ(pcr.shape, dag::TaskShape::kMoldable);
  EXPECT_EQ(pcr.min_procs, kMinGroupSize);
  EXPECT_EQ(pcr.max_procs, kMaxGroupSize);
}

TEST(MonthDag, CriticalPathIsPreMainPost) {
  const MonthDag month = make_month_dag();
  // 1 (caif or mp) + 1260 + 60*3 = 1441.
  EXPECT_DOUBLE_EQ(month.graph.critical_path_ref(), 1441.0);
}

TEST(FusedMonth, TwoTasksOneEdge) {
  const FusedMonth month = make_fused_month();
  EXPECT_EQ(month.graph.node_count(), 2);
  EXPECT_EQ(month.graph.edge_count(), 1u);
  EXPECT_DOUBLE_EQ(month.graph.critical_path_ref(), 1442.0);
}

TEST(Scenario, DetailedChainCounts) {
  const dag::ChainedDag chain = make_detailed_scenario(12);
  EXPECT_EQ(chain.graph.node_count(), 72);
  // 12 x 5 intra + 11 x 2 cross.
  EXPECT_EQ(chain.graph.edge_count(), 12u * 5u + 11u * 2u);
}

TEST(Scenario, FusedChainCounts) {
  const dag::ChainedDag chain = make_fused_scenario(12);
  EXPECT_EQ(chain.graph.node_count(), 24);
  EXPECT_EQ(chain.graph.edge_count(), 12u + 11u);
}

TEST(Scenario, RestartVolumeOnCrossEdges) {
  const dag::ChainedDag chain = make_fused_scenario(3);
  int restart_edges = 0;
  for (const auto& e : chain.graph.edges())
    if (e.data_mb == kInterMonthDataMb) ++restart_edges;
  EXPECT_EQ(restart_edges, 2);
}

TEST(Scenario, FusionPreservesCriticalPath) {
  // The fused chain's critical path equals the detailed chain's plus the 1 s
  // per month the fusion serializes (caif and mp run in parallel in the
  // detailed DAG) — checked internally; the function throws on mismatch.
  const Seconds cp = fused_model_critical_path_check(24);
  // 24 months of fused main on the chain + one trailing post.
  EXPECT_DOUBLE_EQ(cp, 24.0 * 1262.0 + 180.0);
}

TEST(Ensemble, TotalsAndValidation) {
  const Ensemble e = Ensemble::paper_full();
  EXPECT_EQ(e.scenarios, 10);
  EXPECT_EQ(e.months, 1800);
  EXPECT_EQ(e.total_tasks(), 18000);
  EXPECT_NO_THROW(e.validate());
  EXPECT_THROW((Ensemble{0, 5}).validate(), std::invalid_argument);
  EXPECT_THROW((Ensemble{5, 0}).validate(), std::invalid_argument);
}

}  // namespace
}  // namespace oagrid::appmodel
