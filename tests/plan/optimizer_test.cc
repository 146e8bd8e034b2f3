#include "plan/optimizer.h"

#include <gtest/gtest.h>

#include <limits>

#include "exec/expression.h"
#include "plan/binder.h"
#include "sql/parser.h"
#include "storage/memory_store.h"
#include "testing/reference_eval.h"
#include "testing/test_db.h"
#include "workload/tpch.h"

namespace pixels {
namespace {

class OptimizerTest : public ::testing::Test {
 protected:
  void SetUp() override { catalog_ = testing::BuildTestCatalog(); }

  PlanPtr MustOptimize(const std::string& sql, OptimizerOptions options = {}) {
    auto plan = PlanQuery(sql, *catalog_, "db");
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    auto optimized = Optimize(std::move(plan).ValueOrDie(), *catalog_, options);
    EXPECT_TRUE(optimized.ok()) << optimized.status().ToString();
    return optimized.ok() ? *optimized : nullptr;
  }

  static const LogicalPlan* FindNode(const LogicalPlan* plan,
                                     LogicalPlan::Kind kind) {
    if (plan->kind == kind) return plan;
    for (const auto& c : plan->children) {
      const LogicalPlan* f = FindNode(c.get(), kind);
      if (f != nullptr) return f;
    }
    return nullptr;
  }

  std::shared_ptr<Catalog> catalog_;
};

TEST(FoldConstantsTest, FoldsArithmetic) {
  auto e = ParseExpression("1 + 2 * 3");
  ASSERT_TRUE(e.ok());
  auto folded = FoldConstants(std::move(*e));
  ASSERT_EQ(folded->kind, Expr::Kind::kLiteral);
  EXPECT_EQ(folded->literal.i, 7);
}

TEST(FoldConstantsTest, FoldsLogicAndComparison) {
  auto folded = FoldConstants(*ParseExpression("1 < 2 AND 3 = 3"));
  ASSERT_EQ(folded->kind, Expr::Kind::kLiteral);
  EXPECT_TRUE(folded->literal.AsBool());
}

TEST(FoldConstantsTest, KeepsColumnRefs) {
  auto folded = FoldConstants(*ParseExpression("x + (2 * 3)"));
  ASSERT_EQ(folded->kind, Expr::Kind::kBinary);
  EXPECT_EQ(folded->args[1]->literal.i, 6);  // subtree folded
}

TEST(FoldConstantsTest, DivisionByZeroBecomesNull) {
  auto folded = FoldConstants(*ParseExpression("1 / 0"));
  ASSERT_EQ(folded->kind, Expr::Kind::kLiteral);
  EXPECT_TRUE(folded->literal.is_null());
}

// The constant fold (the row evaluator) and the column kernels share one
// int64 rule: + - * and unary - wrap on overflow, and a -1 divisor
// negates with wraparound (remainder 0) where INT64_MIN / -1 would trap.
// CI runs this under ASan+UBSan, where the old signed overflow aborted.
TEST(FoldConstantsTest, Int64OverflowFoldsLikeTheKernels) {
  auto x = MakeVector(TypeId::kInt64);
  x->AppendInt(std::numeric_limits<int64_t>::min());
  x->AppendInt(std::numeric_limits<int64_t>::max());
  RowBatch batch;
  batch.AddColumn("x", x);
  const char* literals[] = {"(-9223372036854775807 - 1)",
                            "9223372036854775807"};
  for (const std::string shape :
       {"x / -1", "x % -1", "x + 1", "x - 1", "x * 2", "-x"}) {
    auto bound = BindExpr(shape, batch);
    ASSERT_TRUE(bound.ok()) << bound.status().ToString();
    auto kernel = EvaluateExpr(**bound, batch);
    ASSERT_TRUE(kernel.ok()) << kernel.status().ToString();
    for (size_t r = 0; r < 2; ++r) {
      std::string text = shape;
      text.replace(text.find('x'), 1, literals[r]);
      SCOPED_TRACE(text);
      auto folded = FoldConstants(*ParseExpression(text));
      ASSERT_EQ(folded->kind, Expr::Kind::kLiteral);
      ASSERT_FALSE((*kernel)->IsNull(r));
      EXPECT_EQ(folded->literal.i, (*kernel)->GetInt(r));
    }
  }
  // The two shapes that used to trap, pinned.
  EXPECT_EQ(
      FoldConstants(*ParseExpression("(-9223372036854775807 - 1) / -1"))
          ->literal.i,
      std::numeric_limits<int64_t>::min());
  EXPECT_EQ(
      FoldConstants(*ParseExpression("(-9223372036854775807 - 1) % -1"))
          ->literal.i,
      0);
}

TEST(FoldConstantsTest, FoldsCaseAndBetween) {
  auto folded =
      FoldConstants(*ParseExpression("CASE WHEN 1 = 1 THEN 5 ELSE 6 END"));
  ASSERT_EQ(folded->kind, Expr::Kind::kLiteral);
  EXPECT_EQ(folded->literal.i, 5);
  folded = FoldConstants(*ParseExpression("5 BETWEEN 1 AND 10"));
  EXPECT_TRUE(folded->literal.AsBool());
}

TEST(FoldConstantsTest, StringOperations) {
  auto folded = FoldConstants(*ParseExpression("'abc' LIKE 'a%'"));
  EXPECT_TRUE(folded->literal.AsBool());
  folded = FoldConstants(*ParseExpression("'a' || 'b'"));
  EXPECT_EQ(folded->literal.s, "ab");
}

TEST(FoldConstantsTest, NeverFoldsAggregates) {
  auto folded = FoldConstants(*ParseExpression("sum(1)"));
  EXPECT_EQ(folded->kind, Expr::Kind::kFunction);
}

TEST(SplitConjunctsTest, SplitsNestedAnds) {
  auto e = ParseExpression("a = 1 AND b = 2 AND (c = 3 AND d = 4)");
  ASSERT_TRUE(e.ok());
  auto conjuncts = SplitConjuncts(**e);
  EXPECT_EQ(conjuncts.size(), 4u);
}

TEST(SplitConjunctsTest, OrIsOneConjunct) {
  auto conjuncts = SplitConjuncts(**ParseExpression("a = 1 OR b = 2"));
  EXPECT_EQ(conjuncts.size(), 1u);
}

TEST(CombineConjunctsTest, RoundTrips) {
  auto e = ParseExpression("a = 1 AND b = 2");
  auto combined = CombineConjuncts(SplitConjuncts(**e));
  EXPECT_TRUE(combined->Equals(**e));
  EXPECT_EQ(CombineConjuncts({}), nullptr);
}

TEST(CollectColumnRefsTest, FindsQualifiedNames) {
  auto e = ParseExpression("t.a + b * f(c.d)");
  std::vector<std::string> refs;
  CollectColumnRefs(**e, &refs);
  EXPECT_EQ(refs, (std::vector<std::string>{"t.a", "b", "c.d"}));
}

TEST_F(OptimizerTest, PushesPredicatesIntoScanZoneMaps) {
  auto plan = MustOptimize("SELECT name FROM emp WHERE salary > 100");
  ASSERT_NE(plan, nullptr);
  const LogicalPlan* scan = FindNode(plan.get(), LogicalPlan::Kind::kScan);
  ASSERT_NE(scan, nullptr);
  ASSERT_EQ(scan->pushed.size(), 1u);
  EXPECT_EQ(scan->pushed[0].column, "salary");
  EXPECT_EQ(scan->pushed[0].op, ">");
  // The exact filter must remain.
  EXPECT_TRUE(plan->Contains(LogicalPlan::Kind::kFilter));
}

TEST_F(OptimizerTest, PushesBetweenAsTwoRangePredicates) {
  auto plan =
      MustOptimize("SELECT name FROM emp WHERE salary BETWEEN 80 AND 100");
  const LogicalPlan* scan = FindNode(plan.get(), LogicalPlan::Kind::kScan);
  ASSERT_NE(scan, nullptr);
  EXPECT_EQ(scan->pushed.size(), 2u);
}

TEST_F(OptimizerTest, FlippedLiteralComparison) {
  auto plan = MustOptimize("SELECT name FROM emp WHERE 100 < salary");
  const LogicalPlan* scan = FindNode(plan.get(), LogicalPlan::Kind::kScan);
  ASSERT_NE(scan, nullptr);
  ASSERT_EQ(scan->pushed.size(), 1u);
  EXPECT_EQ(scan->pushed[0].op, ">");
}

TEST_F(OptimizerTest, PushesSingleSideFiltersBelowJoin) {
  auto plan = MustOptimize(
      "SELECT emp.name FROM emp JOIN dept ON emp.dept = dept.name WHERE "
      "emp.salary > 100 AND dept.location = 'nyc'");
  const LogicalPlan* join = FindNode(plan.get(), LogicalPlan::Kind::kJoin);
  ASSERT_NE(join, nullptr);
  // Both join inputs should now have a filter above their scans.
  EXPECT_EQ(join->children[0]->kind, LogicalPlan::Kind::kFilter);
  EXPECT_EQ(join->children[1]->kind, LogicalPlan::Kind::kFilter);
}

TEST_F(OptimizerTest, CrossTableConjunctStaysAboveJoin) {
  auto plan = MustOptimize(
      "SELECT emp.name FROM emp JOIN dept ON emp.dept = dept.name WHERE "
      "emp.name < dept.location");
  // The filter referencing both sides must remain above the join.
  ASSERT_EQ(plan->kind, LogicalPlan::Kind::kProject);
  EXPECT_EQ(plan->children[0]->kind, LogicalPlan::Kind::kFilter);
  EXPECT_EQ(plan->children[0]->children[0]->kind, LogicalPlan::Kind::kJoin);
}

TEST_F(OptimizerTest, PrunesUnusedScanColumns) {
  auto plan = MustOptimize("SELECT name FROM emp WHERE salary > 10");
  const LogicalPlan* scan = FindNode(plan.get(), LogicalPlan::Kind::kScan);
  ASSERT_NE(scan, nullptr);
  // Only name and salary are needed (5 columns in the table).
  EXPECT_EQ(scan->columns.size(), 2u);
}

TEST_F(OptimizerTest, PruningKeepsAtLeastOneColumn) {
  auto plan = MustOptimize("SELECT count(*) FROM emp");
  const LogicalPlan* scan = FindNode(plan.get(), LogicalPlan::Kind::kScan);
  ASSERT_NE(scan, nullptr);
  EXPECT_GE(scan->columns.size(), 1u);
}

TEST_F(OptimizerTest, OptionsDisableRules) {
  OptimizerOptions options;
  options.pushdown_predicates = false;
  options.prune_projections = false;
  auto plan = MustOptimize("SELECT name FROM emp WHERE salary > 100", options);
  const LogicalPlan* scan = FindNode(plan.get(), LogicalPlan::Kind::kScan);
  ASSERT_NE(scan, nullptr);
  EXPECT_TRUE(scan->pushed.empty());
  EXPECT_EQ(scan->columns.size(), 5u);
}

/// Every join node of `plan`, top-down.
void CollectJoins(const LogicalPlan* plan,
                  std::vector<const LogicalPlan*>* out) {
  if (plan->kind == LogicalPlan::Kind::kJoin) out->push_back(plan);
  for (const auto& c : plan->children) CollectJoins(c.get(), out);
}

TEST_F(OptimizerTest, Q5JoinsKeepOnlyColumnsReadAbove) {
  // lineitem ⋈ (orders ⋈ customer), then ⋈ nation. Each join keeps what
  // the aggregate reads plus the join keys of the joins above it.
  // A TPC-H catalog instead of the fixture's emp/dept.
  auto catalog = std::make_shared<Catalog>(std::make_shared<MemoryStore>());
  TpchOptions tpch;
  tpch.scale_factor = 0.001;
  ASSERT_TRUE(GenerateTpch(catalog.get(), "tpch", tpch).ok());
  const std::string* q5 = nullptr;
  for (const auto& q : TpchQuerySet()) {
    if (q.name == "q5_local_supplier") q5 = &q.sql;
  }
  ASSERT_NE(q5, nullptr);
  auto plan = PlanQuery(*q5, *catalog, "tpch");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  auto optimized = Optimize(std::move(plan).ValueOrDie(), *catalog);
  ASSERT_TRUE(optimized.ok()) << optimized.status().ToString();
  std::vector<const LogicalPlan*> joins;
  CollectJoins(optimized->get(), &joins);
  ASSERT_EQ(joins.size(), 3u) << (*optimized)->ToString();
  using Cols = std::vector<std::string>;
  EXPECT_EQ(joins[0]->columns,
            (Cols{"l.l_extendedprice", "l.l_discount", "n.n_name"}))
      << (*optimized)->ToString();
  EXPECT_EQ(joins[1]->columns,
            (Cols{"l.l_extendedprice", "l.l_discount", "c.c_nationkey"}))
      << (*optimized)->ToString();
  EXPECT_EQ(joins[2]->columns, (Cols{"o.o_orderkey", "c.c_nationkey"}))
      << (*optimized)->ToString();
  // EXPLAIN shows the kept list on the join line.
  EXPECT_NE((*optimized)->ToString().find(
                "[l.l_extendedprice, l.l_discount, n.n_name]"),
            std::string::npos);
}

TEST_F(OptimizerTest, JoinOutputPruningKeepsWhatIsReadAbove) {
  auto join_of = [&](const std::string& sql, OptimizerOptions options = {}) {
    auto plan = MustOptimize(sql, options);
    const LogicalPlan* join = FindNode(plan.get(), LogicalPlan::Kind::kJoin);
    EXPECT_NE(join, nullptr) << sql;
    return join != nullptr ? join->columns : std::vector<std::string>{};
  };
  using Cols = std::vector<std::string>;
  const std::string join = " FROM emp e JOIN dept d ON e.dept = d.name";
  EXPECT_EQ(join_of("SELECT e.name" + join), (Cols{"e.name"}));
  // A filter above the join reads its columns; the project resets.
  EXPECT_EQ(join_of("SELECT e.name" + join +
                    " WHERE e.salary > 100 OR d.location = 'NYC'"),
            (Cols{"e.name", "e.salary", "d.location"}));
  // Nothing read above (count(*)): one column still carries the rows.
  EXPECT_EQ(join_of("SELECT count(*)" + join).size(), 1u);
  // SELECT * reads every column: nothing is pruned.
  EXPECT_TRUE(join_of("SELECT *" + join).empty());
  // The rule belongs to projection pruning and is off with it.
  OptimizerOptions off;
  off.prune_projections = false;
  EXPECT_TRUE(join_of("SELECT e.name" + join, off).empty());
}

TEST_F(OptimizerTest, ConstantFoldingInsidePlans) {
  auto plan = MustOptimize("SELECT salary * (2 + 3) FROM emp");
  ASSERT_EQ(plan->kind, LogicalPlan::Kind::kProject);
  EXPECT_EQ(plan->exprs[0]->args[1]->literal.i, 5);
}

}  // namespace
}  // namespace pixels
