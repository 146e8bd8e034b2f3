#include "plan/binder.h"

#include <gtest/gtest.h>

#include <functional>

#include "testing/test_db.h"

namespace pixels {
namespace {

class BinderTest : public ::testing::Test {
 protected:
  void SetUp() override { catalog_ = testing::BuildTestCatalog(); }

  Result<PlanPtr> Bind(const std::string& sql) {
    return PlanQuery(sql, *catalog_, "db");
  }

  PlanPtr MustBind(const std::string& sql) {
    auto r = Bind(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    return r.ok() ? *r : nullptr;
  }

  std::shared_ptr<Catalog> catalog_;
};

TEST_F(BinderTest, SimpleSelectProducesProjectOverScan) {
  auto plan = MustBind("SELECT name FROM emp");
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->kind, LogicalPlan::Kind::kProject);
  EXPECT_EQ(plan->children[0]->kind, LogicalPlan::Kind::kScan);
  EXPECT_EQ(plan->names, (std::vector<std::string>{"name"}));
}

TEST_F(BinderTest, StarExpandsAllColumns) {
  auto plan = MustBind("SELECT * FROM emp");
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->names.size(), 5u);
  EXPECT_EQ(plan->names[0], "id");
  EXPECT_EQ(plan->names[4], "hired");
}

TEST_F(BinderTest, UnknownTableFails) {
  EXPECT_FALSE(Bind("SELECT x FROM nope").ok());
}

TEST_F(BinderTest, UnknownColumnFails) {
  auto r = Bind("SELECT wat FROM emp");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("wat"), std::string::npos);
}

TEST_F(BinderTest, QualifierResolution) {
  auto plan = MustBind("SELECT e.name FROM emp AS e");
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->exprs[0]->qualifier, "e");
}

TEST_F(BinderTest, UnknownQualifierFails) {
  EXPECT_FALSE(Bind("SELECT z.name FROM emp AS e").ok());
}

TEST_F(BinderTest, AmbiguousColumnFails) {
  auto r = Bind("SELECT name FROM emp JOIN dept ON emp.dept = dept.name");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("ambiguous"), std::string::npos);
}

TEST_F(BinderTest, JoinBuildsJoinNode) {
  auto plan =
      MustBind("SELECT emp.name FROM emp JOIN dept ON emp.dept = dept.name");
  ASSERT_NE(plan, nullptr);
  EXPECT_TRUE(plan->Contains(LogicalPlan::Kind::kJoin));
}

TEST_F(BinderTest, DuplicateAliasFails) {
  EXPECT_FALSE(
      Bind("SELECT 1 FROM emp AS x JOIN dept AS x ON x.dept = x.name").ok());
}

TEST_F(BinderTest, WhereBecomesFilter) {
  auto plan = MustBind("SELECT name FROM emp WHERE salary > 100");
  ASSERT_NE(plan, nullptr);
  EXPECT_TRUE(plan->Contains(LogicalPlan::Kind::kFilter));
}

TEST_F(BinderTest, AggregateInWhereFails) {
  EXPECT_FALSE(Bind("SELECT name FROM emp WHERE sum(salary) > 10").ok());
}

TEST_F(BinderTest, GroupByBuildsAggregate) {
  auto plan = MustBind("SELECT dept, sum(salary) FROM emp GROUP BY dept");
  ASSERT_NE(plan, nullptr);
  EXPECT_TRUE(plan->Contains(LogicalPlan::Kind::kAggregate));
}

TEST_F(BinderTest, GlobalAggregateWithoutGroupBy) {
  auto plan = MustBind("SELECT count(*), avg(salary) FROM emp");
  ASSERT_NE(plan, nullptr);
  EXPECT_TRUE(plan->Contains(LogicalPlan::Kind::kAggregate));
}

TEST_F(BinderTest, NonGroupedColumnInAggregateFails) {
  auto r = Bind("SELECT name, sum(salary) FROM emp GROUP BY dept");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("GROUP BY"), std::string::npos);
}

TEST_F(BinderTest, GroupExprUsableInSelect) {
  auto plan =
      MustBind("SELECT dept, count(*) FROM emp GROUP BY dept ORDER BY dept");
  ASSERT_NE(plan, nullptr);
  EXPECT_TRUE(plan->Contains(LogicalPlan::Kind::kSort));
}

TEST_F(BinderTest, HavingBecomesFilterAboveAggregate) {
  auto plan = MustBind(
      "SELECT dept FROM emp GROUP BY dept HAVING count(*) > 2");
  ASSERT_NE(plan, nullptr);
  // Filter sits above the aggregate: project -> filter -> aggregate.
  const LogicalPlan* node = plan.get();
  ASSERT_EQ(node->kind, LogicalPlan::Kind::kProject);
  node = node->children[0].get();
  EXPECT_EQ(node->kind, LogicalPlan::Kind::kFilter);
  EXPECT_EQ(node->children[0]->kind, LogicalPlan::Kind::kAggregate);
}

TEST_F(BinderTest, AggregatesInGroupByFails) {
  EXPECT_FALSE(Bind("SELECT 1 FROM emp GROUP BY sum(salary)").ok());
}

TEST_F(BinderTest, OrderByAlias) {
  auto plan =
      MustBind("SELECT salary * 2 AS double_pay FROM emp ORDER BY double_pay");
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->kind, LogicalPlan::Kind::kSort);
}

TEST_F(BinderTest, OrderByPosition) {
  auto plan = MustBind("SELECT name, salary FROM emp ORDER BY 2 DESC");
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->kind, LogicalPlan::Kind::kSort);
  EXPECT_EQ(plan->order_by[0].expr->name, "salary");
  EXPECT_FALSE(plan->order_by[0].ascending);
}

TEST_F(BinderTest, OrderByPositionOutOfRangeFails) {
  EXPECT_FALSE(Bind("SELECT name FROM emp ORDER BY 5").ok());
}

TEST_F(BinderTest, OrderByUnselectedColumnUsesHiddenKey) {
  auto plan = MustBind("SELECT name FROM emp ORDER BY salary");
  ASSERT_NE(plan, nullptr);
  // A final projection drops the hidden sort column.
  EXPECT_EQ(plan->kind, LogicalPlan::Kind::kProject);
  EXPECT_EQ(plan->names, (std::vector<std::string>{"name"}));
  EXPECT_EQ(plan->children[0]->kind, LogicalPlan::Kind::kSort);
}

TEST_F(BinderTest, OrderByUnselectedColumnWithDistinctFails) {
  EXPECT_FALSE(Bind("SELECT DISTINCT name FROM emp ORDER BY salary").ok());
}

TEST_F(BinderTest, OrderByUngroupedColumnStillFails) {
  EXPECT_FALSE(
      Bind("SELECT dept, count(*) FROM emp GROUP BY dept ORDER BY name").ok());
}

TEST_F(BinderTest, OrderByAggregateExpression) {
  auto plan = MustBind(
      "SELECT dept, sum(salary) FROM emp GROUP BY dept ORDER BY sum(salary) "
      "DESC");
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->kind, LogicalPlan::Kind::kSort);
}

TEST_F(BinderTest, LimitBecomesLimitNode) {
  auto plan = MustBind("SELECT name FROM emp LIMIT 3");
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->kind, LogicalPlan::Kind::kLimit);
  EXPECT_EQ(plan->limit, 3);
}

TEST_F(BinderTest, DistinctBecomesDistinctNode) {
  auto plan = MustBind("SELECT DISTINCT dept FROM emp");
  ASSERT_NE(plan, nullptr);
  EXPECT_TRUE(plan->Contains(LogicalPlan::Kind::kDistinct));
}

TEST_F(BinderTest, SelectWithoutFrom) {
  auto plan = MustBind("SELECT 1 + 1 AS two");
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->kind, LogicalPlan::Kind::kProject);
  EXPECT_EQ(plan->names[0], "two");
  EXPECT_EQ(plan->children[0]->kind, LogicalPlan::Kind::kMaterializedView);
}

TEST_F(BinderTest, StarWithoutFromFails) {
  EXPECT_FALSE(Bind("SELECT *").ok());
}

TEST_F(BinderTest, PlanToStringContainsNodes) {
  auto plan = MustBind(
      "SELECT dept, sum(salary) FROM emp WHERE salary > 50 GROUP BY dept");
  ASSERT_NE(plan, nullptr);
  std::string s = plan->ToString();
  EXPECT_NE(s.find("Project"), std::string::npos);
  EXPECT_NE(s.find("Aggregate"), std::string::npos);
  EXPECT_NE(s.find("Filter"), std::string::npos);
  EXPECT_NE(s.find("Scan db.emp"), std::string::npos);
}

TEST_F(BinderTest, OutputColumnsPropagate) {
  auto plan = MustBind("SELECT name AS n, salary FROM emp");
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->OutputColumns(),
            (std::vector<std::string>{"n", "salary"}));
}

TEST_F(BinderTest, EveryExpressionCarriesItsBoundType) {
  // emp(id bigint, name varchar, dept varchar, salary double, hired date)
  auto plan = MustBind(
      "SELECT id, hired, id + 1, id / 2, salary * 2, id % 2.5, id > 1, "
      "CASE WHEN id > 3 THEN 1.5 ELSE 0 END, "
      "CASE WHEN id > 3 THEN name END, coalesce(NULL, name), "
      "CAST(id AS varchar), abs(salary), NULL FROM emp");
  ASSERT_NE(plan, nullptr);
  const TypeId i64 = TypeId::kInt64, dbl = TypeId::kDouble,
               str = TypeId::kString;
  const std::vector<TypeId> want = {i64, TypeId::kDate, i64, i64, dbl, i64, i64,
                                    dbl, str, str, str, dbl, i64};
  ASSERT_EQ(plan->exprs.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_TRUE(plan->exprs[i]->type.has_value()) << i;
    EXPECT_EQ(*plan->exprs[i]->type, want[i]) << plan->exprs[i]->ToString();
  }
}

TEST_F(BinderTest, AggregateOutputsAndRefsAboveThemAreTyped) {
  auto plan = MustBind(
      "SELECT hired, count(*), sum(id), sum(salary), avg(id), min(name), "
      "max(hired), sum(id) + 1 FROM emp GROUP BY hired "
      "HAVING count(*) > 0 ORDER BY 2");
  ASSERT_NE(plan, nullptr);
  const LogicalPlan* project = plan.get();
  while (project->kind != LogicalPlan::Kind::kProject) {
    project = project->children[0].get();
  }
  const TypeId i64 = TypeId::kInt64, dbl = TypeId::kDouble;
  // A date group key comes out as its payload type.
  const std::vector<TypeId> want = {i64, i64, i64, dbl, dbl,
                                    TypeId::kString, i64, i64};
  ASSERT_EQ(project->exprs.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(project->exprs[i]->type, want[i]) << project->exprs[i]->ToString();
  }
  auto schema = OutputSchema(*plan, catalog_.get());
  ASSERT_TRUE(schema.ok()) << schema.status().ToString();
  EXPECT_EQ(schema->types, want);
}

// Every node of every expression in `plan`'s tree has a type.
void ExpectAllTyped(const LogicalPlan& plan, const std::string& sql) {
  std::function<void(const Expr&)> check = [&](const Expr& e) {
    EXPECT_TRUE(e.type.has_value()) << sql << ": " << e.ToString();
    for (const auto& a : e.args) check(*a);
  };
  if (plan.predicate) check(*plan.predicate);
  if (plan.join_condition) check(*plan.join_condition);
  for (const auto& e : plan.exprs) check(*e);
  for (const auto& e : plan.group_exprs) check(*e);
  for (const auto& e : plan.agg_exprs) check(*e);
  for (const auto& o : plan.order_by) check(*o.expr);
  for (const auto& c : plan.children) ExpectAllTyped(*c, sql);
}

TEST_F(BinderTest, EveryNodeOfEveryPlanIsTyped) {
  const char* queries[] = {
      "SELECT * FROM emp",
      "SELECT 1 + 2.5, 'x', NULL",
      "SELECT e.name, d.location FROM emp e JOIN dept d ON e.dept = d.name "
      "WHERE e.salary > 50 ORDER BY e.salary DESC LIMIT 3",
      "SELECT dept, count(*) AS n, avg(salary) FROM emp GROUP BY dept "
      "HAVING sum(salary) > 100 ORDER BY n, 3",
      "SELECT dept FROM emp GROUP BY dept ORDER BY max(hired)",
      "SELECT DISTINCT dept FROM emp ORDER BY dept",
      "SELECT name FROM emp ORDER BY salary * 2",
      "SELECT id % 3, sum(CASE WHEN salary > 80 THEN 1.5 ELSE 0 END) FROM emp "
      "GROUP BY id % 3 ORDER BY id % 3"};
  for (const char* sql : queries) {
    auto plan = MustBind(sql);
    ASSERT_NE(plan, nullptr) << sql;
    ExpectAllTyped(*plan, sql);
    auto schema = OutputSchema(*plan, catalog_.get());
    EXPECT_TRUE(schema.ok()) << sql << ": " << schema.status().ToString();
  }
}

TEST_F(BinderTest, UntypableShapesAreBindErrors) {
  // String and number branches of one CASE or coalesce.
  EXPECT_EQ(Bind("SELECT CASE WHEN id > 1 THEN name ELSE 0 END FROM emp")
                .status()
                .code(),
            StatusCode::kTypeError);
  EXPECT_EQ(Bind("SELECT coalesce(name, 1) FROM emp").status().code(),
            StatusCode::kTypeError);
  // A NULL-only branch takes the others' type.
  EXPECT_TRUE(Bind("SELECT coalesce(CASE WHEN id > 1 THEN NULL END, name) "
                   "FROM emp")
                  .ok());
  EXPECT_EQ(Bind("SELECT frobnicate(id) FROM emp").status().code(),
            StatusCode::kNotImplemented);
  EXPECT_EQ(Bind("SELECT CAST(id AS real) FROM emp").status().code(),
            StatusCode::kNotImplemented);
  EXPECT_EQ(Bind("SELECT sum(*) FROM emp").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Bind("SELECT max(id, salary) FROM emp").status().code(),
            StatusCode::kInvalidArgument);
  // SUM and AVG need numbers; MIN, MAX and COUNT take strings.
  EXPECT_EQ(Bind("SELECT sum(name) FROM emp").status().code(),
            StatusCode::kTypeError);
  EXPECT_EQ(Bind("SELECT avg(name) FROM emp").status().code(),
            StatusCode::kTypeError);
  EXPECT_EQ(Bind("SELECT dept, sum(DISTINCT name) FROM emp GROUP BY dept")
                .status()
                .code(),
            StatusCode::kTypeError);
  EXPECT_TRUE(
      Bind("SELECT min(name), max(name), count(name) FROM emp").ok());

  // Scalar functions: the argument count, then each operand's class.
  for (const char* sql :
       {"SELECT abs(id, salary) FROM emp", "SELECT length() FROM emp",
        "SELECT substr(name) FROM emp", "SELECT round(salary, 1, 2) FROM emp",
        "SELECT CAST(id AS varchar) || year(hired, 1) FROM emp"}) {
    EXPECT_EQ(Bind(sql).status().code(), StatusCode::kInvalidArgument) << sql;
  }
  EXPECT_EQ(Bind("SELECT abs(id, salary) FROM emp").status().message(),
            "function abs: wrong argument count");
  // Strings where numbers are needed, and numbers where strings are.
  for (const char* sql :
       {"SELECT length(id) FROM emp", "SELECT lower(salary) FROM emp",
        "SELECT upper(hired) FROM emp", "SELECT substr(id, 1) FROM emp",
        "SELECT substr(name, dept) FROM emp",
        "SELECT substr(name, 1, 'x') FROM emp", "SELECT abs(name) FROM emp",
        "SELECT round(name) FROM emp", "SELECT round(salary, name) FROM emp",
        "SELECT floor(name) FROM emp", "SELECT ceil(dept) FROM emp",
        "SELECT sqrt(name) FROM emp", "SELECT year(name) FROM emp",
        "SELECT month(name) FROM emp", "SELECT day(name) FROM emp",
        "SELECT id + 'a' FROM emp", "SELECT name - 1 FROM emp",
        "SELECT salary * name FROM emp", "SELECT name / 2 FROM emp",
        "SELECT id % dept FROM emp", "SELECT -name FROM emp",
        "SELECT * FROM emp WHERE id LIKE '1%'",
        "SELECT * FROM emp WHERE name LIKE salary"}) {
    EXPECT_EQ(Bind(sql).status().code(), StatusCode::kTypeError) << sql;
  }
  EXPECT_EQ(Bind("SELECT length(id) FROM emp").status().message(),
            "length needs a string argument: length(emp.id)");
  EXPECT_EQ(Bind("SELECT id + 'a' FROM emp").status().message(),
            "+ needs a numeric operand: (emp.id + 'a')");
  // An all-NULL operand fits any signature; concat, ||, the casts,
  // coalesce, NOT, comparisons, IN, BETWEEN and IS NULL take any type.
  for (const char* sql :
       {"SELECT length(NULL), abs(NULL), NULL + 1, -NULL FROM emp",
        "SELECT substr(CASE WHEN id > 1 THEN NULL END, 1) FROM emp",
        "SELECT * FROM emp WHERE NULL LIKE name",
        "SELECT concat(id, name, salary, id > 1), id || name, "
        "CAST(name AS int), CAST(id AS varchar), coalesce(name, 'x') FROM emp",
        "SELECT * FROM emp WHERE NOT name AND name > 1 AND name IN (1, 'a') "
        "AND name BETWEEN 1 AND 'z' AND salary IS NULL",
        "SELECT year(hired), abs(salary), round(salary, id), "
        "substr(name, salary, id), name LIKE dept FROM emp"}) {
    EXPECT_TRUE(Bind(sql).ok()) << sql << ": " << Bind(sql).status().ToString();
  }
}

}  // namespace
}  // namespace pixels
