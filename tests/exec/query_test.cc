// End-to-end SQL tests: parse -> bind -> optimize -> execute over the
// shared test catalog, verifying results.
#include <gtest/gtest.h>

#include "exec/executor.h"
#include "format/writer.h"
#include "testing/test_db.h"

namespace pixels {
namespace {

class QueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    catalog_ = testing::BuildTestCatalog();
    ctx_.catalog = catalog_.get();
  }

  TablePtr Run(const std::string& sql) {
    auto r = ExecuteQuery(sql, "db", &ctx_);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    return r.ok() ? *r : nullptr;
  }

  std::vector<std::string> Rows(const Table& t) {
    std::vector<std::string> out;
    for (const auto& b : t.batches()) {
      for (size_t r = 0; r < b->num_rows(); ++r) out.push_back(b->RowToString(r));
    }
    return out;
  }

  // Type of column `c` in each batch of `t`.
  std::vector<TypeId> ColumnTypes(const Table& t, size_t c) {
    std::vector<TypeId> out;
    for (const auto& b : t.batches()) out.push_back(b->column(c)->type());
    return out;
  }

  std::shared_ptr<Catalog> catalog_;
  ExecContext ctx_;
};

TEST_F(QueryTest, SelectAllRows) {
  auto t = Run("SELECT id, name FROM emp");
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->num_rows(), 8u);
}

TEST_F(QueryTest, FilterRows) {
  auto t = Run("SELECT name FROM emp WHERE salary > 100");
  ASSERT_NE(t, nullptr);
  auto rows = Rows(*t);
  EXPECT_EQ(rows, (std::vector<std::string>{"alice", "frank"}));
}

TEST_F(QueryTest, FilterWithAndOr) {
  auto t = Run(
      "SELECT name FROM emp WHERE dept = 'hr' OR (dept = 'eng' AND salary < "
      "100)");
  auto rows = Rows(*t);
  EXPECT_EQ(rows, (std::vector<std::string>{"bob", "erin", "grace"}));
}

TEST_F(QueryTest, ProjectionExpressions) {
  auto t = Run("SELECT id * 10 + 1 AS x FROM emp WHERE id <= 2");
  auto rows = Rows(*t);
  EXPECT_EQ(rows, (std::vector<std::string>{"11", "21"}));
}

TEST_F(QueryTest, GlobalAggregates) {
  auto t = Run("SELECT count(*), sum(salary), min(salary), max(salary) FROM emp");
  ASSERT_NE(t, nullptr);
  ASSERT_EQ(t->num_rows(), 1u);
  auto counts = t->CollectColumn("count(*)");
  EXPECT_EQ(counts[0].i, 8);
  auto sums = t->CollectColumn("sum(emp.salary)");
  EXPECT_DOUBLE_EQ(sums[0].d, 120 + 95 + 80 + 85 + 70 + 110 + 72 + 90);
}

TEST_F(QueryTest, GroupByWithOrder) {
  auto t = Run(
      "SELECT dept, count(*) AS c, sum(salary) AS total FROM emp GROUP BY "
      "dept ORDER BY dept");
  auto rows = Rows(*t);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0], "eng\t3\t325");
  EXPECT_EQ(rows[1], "hr\t2\t142");
  EXPECT_EQ(rows[2], "sales\t3\t255");
}

TEST_F(QueryTest, AvgAggregate) {
  auto t = Run("SELECT dept, avg(salary) FROM emp GROUP BY dept ORDER BY dept");
  auto vals = t->CollectColumn("avg(emp.salary)");
  ASSERT_EQ(vals.size(), 3u);
  EXPECT_NEAR(vals[0].d, 325.0 / 3, 1e-9);
  EXPECT_NEAR(vals[1].d, 71.0, 1e-9);
}

TEST_F(QueryTest, CountDistinct) {
  auto t = Run("SELECT count(DISTINCT dept) FROM emp");
  EXPECT_EQ(Rows(*t), (std::vector<std::string>{"3"}));
}

TEST_F(QueryTest, Having) {
  auto t = Run(
      "SELECT dept, count(*) FROM emp GROUP BY dept HAVING count(*) > 2 "
      "ORDER BY dept");
  auto rows = Rows(*t);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], "eng\t3");
  EXPECT_EQ(rows[1], "sales\t3");
}

TEST_F(QueryTest, AggregateExpressionOverAggregates) {
  auto t = Run("SELECT sum(salary) / count(*) AS mean FROM emp");
  auto vals = t->CollectColumn("mean");
  ASSERT_EQ(vals.size(), 1u);
  EXPECT_NEAR(vals[0].d, 722.0 / 8, 1e-9);
}

TEST_F(QueryTest, InnerJoin) {
  auto t = Run(
      "SELECT e.name, d.location FROM emp e JOIN dept d ON e.dept = d.name "
      "WHERE e.salary > 100 ORDER BY e.name");
  auto rows = Rows(*t);
  EXPECT_EQ(rows, (std::vector<std::string>{"alice\tzurich", "frank\tzurich"}));
}

TEST_F(QueryTest, JoinWithAggregation) {
  auto t = Run(
      "SELECT d.location, count(*) AS c FROM emp e JOIN dept d ON e.dept = "
      "d.name GROUP BY d.location ORDER BY d.location");
  auto rows = Rows(*t);
  EXPECT_EQ(rows, (std::vector<std::string>{"nyc\t3", "sf\t2", "zurich\t3"}));
}

TEST_F(QueryTest, LeftJoinPadsNulls) {
  // dept 'legal' has no employees, so its row pads with NULL.
  auto t = Run(
      "SELECT d.name, count(e.id) AS c FROM dept d LEFT JOIN emp e ON d.name "
      "= e.dept GROUP BY d.name ORDER BY d.name");
  ASSERT_NE(t, nullptr);
  auto rows = Rows(*t);
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[0], "eng\t3");
  EXPECT_EQ(rows[1], "hr\t2");
  EXPECT_EQ(rows[2], "legal\t0");  // count skips the padded NULL
  EXPECT_EQ(rows[3], "sales\t3");
}

TEST_F(QueryTest, CrossJoinCardinality) {
  auto t = Run("SELECT e.id FROM emp e CROSS JOIN dept d");
  EXPECT_EQ(t->num_rows(), 32u);
}

TEST_F(QueryTest, CommaJoinWithWhere) {
  auto t = Run(
      "SELECT e.name FROM emp e, dept d WHERE e.dept = d.name AND d.location "
      "= 'sf' ORDER BY e.name");
  EXPECT_EQ(Rows(*t), (std::vector<std::string>{"erin", "grace"}));
}

TEST_F(QueryTest, NonEquiJoin) {
  auto t = Run(
      "SELECT e1.name FROM emp e1 JOIN emp e2 ON e1.salary < e2.salary WHERE "
      "e2.name = 'alice' ORDER BY e1.name");
  // Everyone earns less than alice except alice herself.
  EXPECT_EQ(t->num_rows(), 7u);
}

TEST_F(QueryTest, OrderByMultipleKeys) {
  auto t = Run("SELECT dept, name FROM emp ORDER BY dept ASC, name DESC");
  auto rows = Rows(*t);
  ASSERT_EQ(rows.size(), 8u);
  EXPECT_EQ(rows[0], "eng\tfrank");
  EXPECT_EQ(rows[1], "eng\tbob");
  EXPECT_EQ(rows[2], "eng\talice");
}

TEST_F(QueryTest, Limit) {
  auto t = Run("SELECT name FROM emp ORDER BY id LIMIT 3");
  EXPECT_EQ(Rows(*t), (std::vector<std::string>{"alice", "bob", "carol"}));
  auto t0 = Run("SELECT name FROM emp LIMIT 0");
  EXPECT_EQ(t0->num_rows(), 0u);
}

TEST_F(QueryTest, Distinct) {
  auto t = Run("SELECT DISTINCT dept FROM emp ORDER BY dept");
  EXPECT_EQ(Rows(*t), (std::vector<std::string>{"eng", "hr", "sales"}));
}

TEST_F(QueryTest, DateComparison) {
  auto t = Run(
      "SELECT name FROM emp WHERE hired >= DATE '2021-01-01' ORDER BY name");
  EXPECT_EQ(Rows(*t),
            (std::vector<std::string>{"bob", "dave", "frank", "heidi"}));
}

TEST_F(QueryTest, YearFunction) {
  auto t = Run("SELECT name FROM emp WHERE year(hired) = 2020 ORDER BY name");
  EXPECT_EQ(Rows(*t), (std::vector<std::string>{"alice", "grace"}));
}

TEST_F(QueryTest, LikeFilter) {
  auto t = Run("SELECT name FROM emp WHERE name LIKE '%a%' ORDER BY name");
  EXPECT_EQ(Rows(*t), (std::vector<std::string>{"alice", "carol", "dave",
                                                "frank", "grace"}));
}

TEST_F(QueryTest, CaseInProjection) {
  auto t = Run(
      "SELECT name, CASE WHEN salary >= 100 THEN 'high' ELSE 'normal' END AS "
      "band FROM emp WHERE id <= 2 ORDER BY id");
  auto rows = Rows(*t);
  EXPECT_EQ(rows[0], "alice\thigh");
  EXPECT_EQ(rows[1], "bob\tnormal");
}

TEST_F(QueryTest, EmptyResultSet) {
  auto t = Run("SELECT name FROM emp WHERE salary > 100000");
  EXPECT_EQ(t->num_rows(), 0u);
}

TEST_F(QueryTest, AggregateOverEmptyInput) {
  auto t = Run("SELECT count(*), sum(salary) FROM emp WHERE id > 100");
  auto rows = Rows(*t);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], "0\tNULL");
}

TEST_F(QueryTest, GroupedAggregateOverEmptyInputIsEmpty) {
  auto t = Run("SELECT dept, count(*) FROM emp WHERE id > 100 GROUP BY dept");
  EXPECT_EQ(t->num_rows(), 0u);
}

TEST_F(QueryTest, ScanAccountingTracksBytes) {
  ctx_.bytes_scanned = 0;
  Run("SELECT name FROM emp");
  EXPECT_GT(ctx_.bytes_scanned, 0u);
  EXPECT_GT(ctx_.rows_scanned, 0u);
}

TEST_F(QueryTest, SelectLiteralsWithoutFrom) {
  auto t = Run("SELECT 1 + 1 AS two, 'x' AS s");
  auto rows = Rows(*t);
  EXPECT_EQ(rows, (std::vector<std::string>{"2\tx"}));
}

TEST_F(QueryTest, ZoneMapPruningStillReturnsExactResults) {
  // Predicate pushdown prunes row groups but the filter is exact.
  auto t = Run("SELECT id FROM emp WHERE id = 5");
  EXPECT_EQ(Rows(*t), (std::vector<std::string>{"5"}));
}

TEST_F(QueryTest, OutputTypeIgnoresRowsTheFilterDropped) {
  // `dept = 'sales'` is pushed into the scan; the OR is not, so its
  // Filter hands Project and HashAgg a selection over the whole batch.
  // Only deselected rows have salary > 100; the CASE is typed double by
  // the binder whichever rows reach it.
  const std::string proj =
      "SELECT id, CASE WHEN salary > 100 THEN 1.5 ELSE 0 END AS c FROM emp ";
  auto pushed = Run(proj + "WHERE dept = 'sales' ORDER BY id");
  auto filtered = Run(proj + "WHERE dept = 'sales' OR id > 100 ORDER BY id");
  EXPECT_EQ(Rows(*filtered), Rows(*pushed));
  EXPECT_EQ(ColumnTypes(*pushed, 1), std::vector<TypeId>{TypeId::kDouble});
  EXPECT_EQ(ColumnTypes(*filtered, 1), ColumnTypes(*pushed, 1));

  const std::string agg =
      "SELECT dept, sum(CASE WHEN salary > 100 THEN 1.5 ELSE 0 END) AS c "
      "FROM emp ";
  auto agg_pushed = Run(agg + "WHERE dept = 'sales' GROUP BY dept");
  auto agg_filtered =
      Run(agg + "WHERE dept = 'sales' OR id > 100 GROUP BY dept");
  EXPECT_EQ(Rows(*agg_pushed), (std::vector<std::string>{"sales\t0"}));
  EXPECT_EQ(Rows(*agg_filtered), Rows(*agg_pushed));
  EXPECT_EQ(ColumnTypes(*agg_filtered, 1), ColumnTypes(*agg_pushed, 1));
}

TEST_F(QueryTest, AllNullSelectedRowsTypeAsGathered) {
  // Every selected row has `b` NULL; only deselected rows carry values.
  FileSchema schema = {{"id", TypeId::kInt64},
                       {"grp", TypeId::kString},
                       {"b", TypeId::kDouble}};
  ASSERT_TRUE(catalog_->CreateTable("db", "nt", schema).ok());
  PixelsWriter writer(schema);
  for (int64_t id = 1; id <= 8; ++id) {
    const bool x = id <= 4;
    ASSERT_TRUE(writer
                    .AppendRow({Value::Int(id), Value::String(x ? "x" : "y"),
                                x ? Value::Null() : Value::Double(1.5 * id)})
                    .ok());
  }
  ASSERT_TRUE(writer.Finish(catalog_->storage(), "db/nt/part0.pxl").ok());
  ASSERT_TRUE(catalog_->AddTableFile("db", "nt", "db/nt/part0.pxl").ok());

  auto t = Run("SELECT id, b * 2 AS x FROM nt WHERE grp = 'x' OR id > 100");
  EXPECT_EQ(Rows(*t), (std::vector<std::string>{"1\tNULL", "2\tNULL",
                                                "3\tNULL", "4\tNULL"}));
  // b * 2 has no non-null value over the selection, and keeps its bound
  // type, as the gathered batch does.
  EXPECT_EQ(ColumnTypes(*t, 1), std::vector<TypeId>{TypeId::kDouble});
}

}  // namespace
}  // namespace pixels
