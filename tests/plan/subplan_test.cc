#include "plan/subplan.h"

#include <gtest/gtest.h>

#include "plan/binder.h"
#include "plan/optimizer.h"
#include "testing/test_db.h"
#include "workload/tpch.h"

namespace pixels {
namespace {

class SubplanTest : public ::testing::Test {
 protected:
  void SetUp() override { catalog_ = testing::BuildTestCatalog(); }

  PlanPtr Plan(const std::string& sql) {
    auto plan = PlanQuery(sql, *catalog_, "db");
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    auto optimized = Optimize(std::move(plan).ValueOrDie(), *catalog_);
    EXPECT_TRUE(optimized.ok());
    return optimized.ok() ? *optimized : nullptr;
  }

  std::shared_ptr<Catalog> catalog_;
};

TEST_F(SubplanTest, AggregateSplitsIntoPartialAndFinal) {
  auto plan = Plan("SELECT dept, sum(salary) FROM emp GROUP BY dept");
  auto split = SplitForCf(plan);
  ASSERT_TRUE(split.ok()) << split.status().ToString();
  EXPECT_TRUE(split->partial_agg);
  ASSERT_NE(split->subplan, nullptr);
  EXPECT_EQ(split->subplan->kind, LogicalPlan::Kind::kAggregate);
  EXPECT_TRUE(split->subplan->partial);
  // Final plan has a merge aggregate over a view placeholder.
  EXPECT_TRUE(split->final_plan->Contains(LogicalPlan::Kind::kMaterializedView));
  EXPECT_TRUE(split->final_plan->Contains(LogicalPlan::Kind::kAggregate));
}

TEST_F(SubplanTest, DistinctAggregateSplitsBelowAggregate) {
  auto plan = Plan("SELECT count(DISTINCT dept) FROM emp");
  auto split = SplitForCf(plan);
  ASSERT_TRUE(split.ok());
  EXPECT_FALSE(split->partial_agg);
  ASSERT_NE(split->subplan, nullptr);
  // The sub-plan is below the aggregate (the scan subtree).
  EXPECT_NE(split->subplan->kind, LogicalPlan::Kind::kAggregate);
  // The aggregate remains top-level.
  EXPECT_TRUE(split->final_plan->Contains(LogicalPlan::Kind::kAggregate));
}

TEST_F(SubplanTest, ScanOnlyPlanSplitsAtScan) {
  auto plan = Plan("SELECT name FROM emp LIMIT 2");
  auto split = SplitForCf(plan);
  ASSERT_TRUE(split.ok());
  ASSERT_NE(split->subplan, nullptr);
  EXPECT_EQ(split->subplan->kind, LogicalPlan::Kind::kScan);
  // Limit and project stay top-level.
  EXPECT_EQ(split->final_plan->kind, LogicalPlan::Kind::kLimit);
}

// Pushed predicates only prune row groups, so a scan's Filter runs in the
// workers with it and the view holds only the rows it keeps.
TEST_F(SubplanTest, FilterOverScanIsPushedWithItsScan) {
  auto plan =
      Plan("SELECT name FROM emp WHERE salary > 100 ORDER BY name LIMIT 2");
  auto split = SplitForCf(plan);
  ASSERT_TRUE(split.ok());
  ASSERT_NE(split->subplan, nullptr);
  ASSERT_EQ(split->subplan->kind, LogicalPlan::Kind::kFilter);
  EXPECT_EQ(split->subplan->children[0]->kind, LogicalPlan::Kind::kScan);
  EXPECT_FALSE(split->subplan->children[0]->pushed.empty());
  EXPECT_FALSE(split->final_plan->Contains(LogicalPlan::Kind::kFilter));
  EXPECT_TRUE(split->final_plan->Contains(LogicalPlan::Kind::kLimit));
}

TEST_F(SubplanTest, JoinSubtreeIsPushedWhole) {
  auto plan = Plan(
      "SELECT emp.name, dept.location FROM emp JOIN dept ON emp.dept = "
      "dept.name");
  auto split = SplitForCf(plan);
  ASSERT_TRUE(split.ok());
  ASSERT_NE(split->subplan, nullptr);
  EXPECT_TRUE(split->subplan->Contains(LogicalPlan::Kind::kJoin));
  EXPECT_FALSE(split->final_plan->Contains(LogicalPlan::Kind::kJoin));
}

TEST_F(SubplanTest, NoHeavyNodeMeansNoSplit) {
  auto plan = Plan("SELECT 1 + 1");
  auto split = SplitForCf(plan);
  ASSERT_TRUE(split.ok());
  EXPECT_EQ(split->subplan, nullptr);
}

TEST_F(SubplanTest, InjectViewFillsPlaceholder) {
  auto plan = Plan("SELECT name FROM emp LIMIT 2");
  auto split = SplitForCf(plan);
  ASSERT_TRUE(split.ok());
  auto view = std::make_shared<Table>();
  ASSERT_TRUE(InjectView(split->final_plan, view).ok());
  // Injecting twice fails: no empty placeholder remains.
  EXPECT_TRUE(InjectView(split->final_plan, view).IsFailedPrecondition());
}

TEST_F(SubplanTest, InjectViewWithoutPlaceholderFails) {
  auto plan = Plan("SELECT name FROM emp");
  EXPECT_TRUE(InjectView(plan, std::make_shared<Table>()).IsFailedPrecondition());
}

TEST_F(SubplanTest, PartitionAssignsDisjointFiles) {
  // Build a TPC-H catalog with several lineitem files.
  auto storage = std::make_shared<MemoryStore>();
  auto catalog = std::make_shared<Catalog>(storage);
  TpchOptions options;
  options.scale_factor = 0.002;
  options.rows_per_file = 3000;  // 12000 lineitem rows -> 4 files
  ASSERT_TRUE(GenerateTpch(catalog.get(), "tpch", options).ok());

  auto plan = PlanQuery("SELECT sum(l_extendedprice) FROM lineitem", *catalog,
                        "tpch");
  ASSERT_TRUE(plan.ok());
  auto split = SplitForCf(*plan);
  ASSERT_TRUE(split.ok());
  ASSERT_NE(split->subplan, nullptr);

  auto partitions = PartitionSubplan(split->subplan, 3, *catalog);
  ASSERT_TRUE(partitions.ok()) << partitions.status().ToString();
  EXPECT_EQ(partitions->size(), 3u);
  // Every file appears exactly once across workers.
  std::set<std::string> seen;
  size_t total = 0;
  for (const auto& wp : *partitions) {
    const LogicalPlan* scan = wp.get();
    while (scan->kind != LogicalPlan::Kind::kScan) {
      scan = scan->children[0].get();
    }
    for (const auto& f : scan->file_subset) {
      EXPECT_TRUE(seen.insert(f).second) << "duplicate file " << f;
      ++total;
    }
  }
  auto table = catalog->GetTable("tpch", "lineitem");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(total, (*table)->files.size());
}

TEST_F(SubplanTest, PartitionCapsWorkersAtFileCount) {
  auto split = SplitForCf(Plan("SELECT name FROM emp"));
  ASSERT_TRUE(split.ok());
  auto partitions = PartitionSubplan(split->subplan, 8, *catalog_);
  ASSERT_TRUE(partitions.ok());
  EXPECT_EQ(partitions->size(), 1u);  // emp has one file
}

TEST_F(SubplanTest, PartitionRejectsBadWorkerCount) {
  auto split = SplitForCf(Plan("SELECT name FROM emp"));
  ASSERT_TRUE(split.ok());
  EXPECT_TRUE(
      PartitionSubplan(split->subplan, 0, *catalog_).status().IsInvalidArgument());
}

TEST_F(SubplanTest, PartialAggOutputDeclaresStateColumns) {
  auto plan = Plan("SELECT dept, avg(salary) FROM emp GROUP BY dept");
  auto split = SplitForCf(plan);
  ASSERT_TRUE(split.ok());
  ASSERT_TRUE(split->partial_agg);
  // The merge aggregate references the same output names as the original.
  const LogicalPlan* merge = split->final_plan.get();
  while (merge->kind != LogicalPlan::Kind::kAggregate) {
    merge = merge->children[0].get();
  }
  EXPECT_TRUE(merge->merge_partials);
  ASSERT_EQ(merge->agg_names.size(), 1u);
  EXPECT_EQ(merge->agg_names[0], "avg(emp.salary)");
}

}  // namespace
}  // namespace pixels
