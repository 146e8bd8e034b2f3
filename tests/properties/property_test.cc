// Property-based suites:
//  * optimizer equivalence — every optimizer configuration produces the
//    same rows as the unoptimized plan, over a corpus of generated queries;
//  * format round-trip — random schemas/data survive writer -> reader
//    exactly, for every forced encoding;
//  * partial/merge aggregation — splitting any aggregate query for CF
//    workers and merging partials equals direct execution, across worker
//    counts;
//  * the type contract — a generated expression bound over a mixed-type
//    schema evaluates, through SelBatch::Evaluate, to exactly its bound
//    type on empty, all-null, dense and sparsely selected batches, with
//    the values and nulls of the row-at-a-time reference.
#include <gtest/gtest.h>

#include "exec/executor.h"
#include "exec/operators.h"
#include "plan/binder.h"
#include "plan/optimizer.h"
#include "plan/subplan.h"
#include "storage/memory_store.h"
#include "testing/reference_eval.h"
#include "testing/test_db.h"
#include "turbo/cf_worker.h"
#include "workload/tpch.h"

namespace pixels {
namespace {

std::vector<std::string> SortedRows(const Table& t) {
  std::vector<std::string> rows;
  for (const auto& b : t.batches()) {
    for (size_t r = 0; r < b->num_rows(); ++r) rows.push_back(b->RowToString(r));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

// ---- optimizer equivalence over generated queries ----

class OptimizerEquivalenceTest : public ::testing::TestWithParam<int> {};

std::string GenerateQuery(Random* rng) {
  // Random single/two-table queries over the emp/dept test schema.
  // Qualified names avoid ambiguity when dept is joined in (both tables
  // have a "name" column).
  static const char* kNumeric[] = {"emp.salary", "emp.id"};
  static const char* kString[] = {"emp.name", "emp.dept"};
  static const char* kAgg[] = {"sum", "avg", "min", "max", "count"};
  std::string sql = "SELECT ";
  const bool join = rng->Bernoulli(0.3);
  const bool grouped = rng->Bernoulli(0.5);
  std::string group_col = kString[rng->Uniform(0, 1)];
  if (grouped) {
    std::string measure = kNumeric[rng->Uniform(0, 1)];
    std::string fn = kAgg[rng->Uniform(0, 4)];
    sql += group_col + ", " + fn + "(" + measure + ")";
  } else {
    sql += std::string(kString[rng->Uniform(0, 1)]) + ", " +
           kNumeric[rng->Uniform(0, 1)];
  }
  sql += " FROM emp";
  if (join) sql += " JOIN dept ON emp.dept = dept.name";
  if (rng->Bernoulli(0.7)) {
    const int pick = static_cast<int>(rng->Uniform(0, 3));
    switch (pick) {
      case 0:
        sql += " WHERE emp.salary > " + std::to_string(rng->Uniform(50, 130));
        break;
      case 1:
        sql += " WHERE emp.dept = 'eng'";
        break;
      case 2:
        sql += " WHERE emp.salary BETWEEN 70 AND 100";
        break;
      default:
        sql += " WHERE emp.id IN (1, 3, 5) OR emp.salary >= 90";
        break;
    }
  }
  if (grouped) sql += " GROUP BY " + group_col;
  if (rng->Bernoulli(0.4)) sql += " LIMIT " + std::to_string(rng->Uniform(1, 9));
  return sql;
}

TEST_P(OptimizerEquivalenceTest, OptimizedPlansMatchUnoptimized) {
  auto catalog = testing::BuildTestCatalog();
  Random rng(static_cast<uint64_t>(GetParam()) * 7919 + 3);
  for (int q = 0; q < 20; ++q) {
    std::string sql = GenerateQuery(&rng);
    auto raw = PlanQuery(sql, *catalog, "db");
    ASSERT_TRUE(raw.ok()) << sql << ": " << raw.status().ToString();

    OptimizerOptions none;
    none.fold_constants = false;
    none.pushdown_predicates = false;
    none.prune_projections = false;
    none.optimize_join_order = false;

    ExecContext base_ctx;
    base_ctx.catalog = catalog.get();
    auto baseline = ExecutePlan(*raw, &base_ctx);
    ASSERT_TRUE(baseline.ok()) << sql;

    // Every single-rule configuration plus the full optimizer.
    std::vector<OptimizerOptions> configs;
    configs.push_back(OptimizerOptions{});
    for (int bit = 0; bit < 4; ++bit) {
      OptimizerOptions o = none;
      if (bit == 0) o.fold_constants = true;
      if (bit == 1) o.pushdown_predicates = true;
      if (bit == 2) o.prune_projections = true;
      if (bit == 3) o.optimize_join_order = true;
      configs.push_back(o);
    }
    for (const auto& config : configs) {
      auto cloned = (*raw)->Clone();
      auto optimized = Optimize(cloned, *catalog, config);
      ASSERT_TRUE(optimized.ok()) << sql;
      ExecContext ctx;
      ctx.catalog = catalog.get();
      auto result = ExecutePlan(*optimized, &ctx);
      ASSERT_TRUE(result.ok()) << sql;
      // LIMIT without ORDER BY picks arbitrary rows; compare counts there
      // and exact row sets otherwise.
      if (sql.find("LIMIT") != std::string::npos) {
        EXPECT_EQ((*result)->num_rows(), (*baseline)->num_rows()) << sql;
      } else {
        EXPECT_EQ(SortedRows(**result), SortedRows(**baseline)) << sql;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OptimizerEquivalenceTest,
                         ::testing::Range(0, 5));

// ---- format round-trip with random schemas/data ----

class FormatRoundTripTest : public ::testing::TestWithParam<int> {};

TEST_P(FormatRoundTripTest, RandomSchemaSurvivesWriteRead) {
  Random rng(static_cast<uint64_t>(GetParam()) * 104729 + 17);
  const TypeId kTypes[] = {TypeId::kBool,   TypeId::kInt32,  TypeId::kInt64,
                           TypeId::kDouble, TypeId::kString, TypeId::kDate,
                           TypeId::kTimestamp};
  FileSchema schema;
  const int num_cols = static_cast<int>(rng.Uniform(1, 8));
  for (int c = 0; c < num_cols; ++c) {
    schema.push_back({"c" + std::to_string(c),
                      kTypes[rng.Uniform(0, 6)]});
  }
  const int num_rows = static_cast<int>(rng.Uniform(0, 700));
  std::vector<std::vector<Value>> rows;
  for (int r = 0; r < num_rows; ++r) {
    std::vector<Value> row;
    for (const auto& col : schema) {
      if (rng.Bernoulli(0.1)) {
        row.push_back(Value::Null());
        continue;
      }
      switch (col.type) {
        case TypeId::kBool:
          row.push_back(Value::Bool(rng.Bernoulli(0.5)));
          break;
        case TypeId::kDouble:
          row.push_back(Value::Double(rng.UniformDouble(-1e9, 1e9)));
          break;
        case TypeId::kString:
          row.push_back(Value::String(rng.NextString(rng.Uniform(0, 24))));
          break;
        default:
          row.push_back(Value::Int(rng.Uniform(-1000000000LL, 1000000000LL)));
          break;
      }
    }
    rows.push_back(std::move(row));
  }

  MemoryStore store;
  WriterOptions options;
  options.row_group_size = static_cast<size_t>(rng.Uniform(16, 300));
  PixelsWriter writer(schema, options);
  for (const auto& row : rows) {
    ASSERT_TRUE(writer.AppendRow(row).ok());
  }
  ASSERT_TRUE(writer.Finish(&store, "prop.pxl").ok());

  auto reader = PixelsReader::Open(&store, "prop.pxl");
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ((*reader)->NumRows(), rows.size());
  auto batches = (*reader)->Scan(ScanOptions{});
  ASSERT_TRUE(batches.ok());
  size_t row_index = 0;
  for (const auto& batch : *batches) {
    for (size_t r = 0; r < batch->num_rows(); ++r, ++row_index) {
      for (size_t c = 0; c < schema.size(); ++c) {
        const Value& expected = rows[row_index][c];
        Value actual = batch->column(c)->GetValue(r);
        ASSERT_EQ(expected.is_null(), actual.is_null())
            << "row " << row_index << " col " << c;
        if (!expected.is_null()) {
          ASSERT_EQ(expected.Compare(actual), 0)
              << "row " << row_index << " col " << c;
        }
      }
    }
  }
  EXPECT_EQ(row_index, rows.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, FormatRoundTripTest, ::testing::Range(0, 12));

// ---- partial/merge aggregation across worker counts ----

struct PartialAggCase {
  const char* label;
  const char* sql;
  int workers;
};

// gtest_discover_tests names each case after its printed parameter. Without
// this, gtest prints the struct's raw bytes, which hold the address of `sql`
// and so differ from run to run.
void PrintTo(const PartialAggCase& c, std::ostream* os) {
  *os << c.label << "_w" << c.workers;
}

class PartialAggPropertyTest
    : public ::testing::TestWithParam<PartialAggCase> {};

TEST_P(PartialAggPropertyTest, PushdownEqualsDirect) {
  static std::shared_ptr<Catalog> catalog = [] {
    auto storage = std::make_shared<MemoryStore>();
    auto c = std::make_shared<Catalog>(storage);
    TpchOptions options;
    options.scale_factor = 0.001;
    options.rows_per_file = 1000;  // 6 lineitem files
    EXPECT_TRUE(GenerateTpch(c.get(), "tpch", options).ok());
    return c;
  }();

  const PartialAggCase& c = GetParam();
  ExecContext direct_ctx;
  direct_ctx.catalog = catalog.get();
  auto direct = ExecuteQuery(c.sql, "tpch", &direct_ctx);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();

  auto plan = PlanQuery(c.sql, *catalog, "tpch");
  ASSERT_TRUE(plan.ok());
  auto optimized = Optimize(std::move(plan).ValueOrDie(), *catalog);
  ASSERT_TRUE(optimized.ok());
  CfWorkerOptions options;
  options.num_workers = c.workers;
  auto exec = ExecuteWithCfPushdown(*optimized, catalog.get(), options);
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  EXPECT_EQ(SortedRows(**direct), SortedRows(*exec->result)) << c.sql;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PartialAggPropertyTest,
    ::testing::Values(
        PartialAggCase{"sum", "SELECT sum(l_quantity) FROM lineitem", 1},
        PartialAggCase{"sum", "SELECT sum(l_quantity) FROM lineitem", 3},
        PartialAggCase{"sum", "SELECT sum(l_quantity) FROM lineitem", 6},
        PartialAggCase{"count_star", "SELECT count(*) FROM lineitem", 4},
        PartialAggCase{
            "minmax_shipdate",
            "SELECT min(l_shipdate), max(l_shipdate) FROM lineitem", 5},
        PartialAggCase{
            "avg_by_returnflag",
            "SELECT l_returnflag, avg(l_discount) FROM lineitem GROUP BY "
            "l_returnflag",
            2},
        PartialAggCase{
            "avg_by_returnflag",
            "SELECT l_returnflag, avg(l_discount) FROM lineitem GROUP BY "
            "l_returnflag",
            6},
        PartialAggCase{
            "multi_agg_by_shipmode",
            "SELECT l_shipmode, sum(l_extendedprice), count(*), "
            "min(l_quantity), max(l_quantity), avg(l_tax) FROM lineitem "
            "WHERE l_quantity > 10 GROUP BY l_shipmode",
            4},
        PartialAggCase{"count_distinct",
                       "SELECT count(DISTINCT l_shipmode) FROM lineitem", 3},
        PartialAggCase{
            "count_by_linestatus",
            "SELECT l_linestatus, count(*) FROM lineitem WHERE l_shipdate < "
            "DATE '1995-01-01' GROUP BY l_linestatus",
            5}));

// ---- the type contract: EvaluateExpr returns the bound type ----

/// Random SQL expressions over TypedBatch's columns. Numbers stay small
/// and products shallow, so int64 arithmetic never overflows. Without
/// `functions`, every shape has a column kernel; with them, most
/// expressions take the row path.
class ExprGen {
 public:
  explicit ExprGen(uint64_t seed) : rng_(seed) {}

  bool functions = true;

  std::string Any(int depth) {
    switch (rng_.Uniform(0, 2)) {
      case 0:
        return Num(depth);
      case 1:
        return Str(depth);
      default:
        return Bool(depth);
    }
  }

  std::string Num(int depth) {
    static const char* kLeaves[] = {"i", "t.d", "j", "dt", "b", "7", "-3",
                                    "2.5", "0", "NULL"};
    if (depth <= 0 || rng_.Bernoulli(0.15)) return kLeaves[rng_.Uniform(0, 9)];
    // Products only near the leaves, so no value leaves int64.
    static const char* kOps[] = {"+", "-", "/", "/", "%", "*"};
    switch (rng_.Uniform(0, functions ? 10 : 4)) {
      case 0:
      case 1:
        return "(" + Num(depth - 1) + " " + kOps[rng_.Uniform(0, depth > 2 ? 4 : 5)] +
               " " + Num(depth - 1) + ")";
      case 2:
        return "(-(" + Num(depth - 1) + "))";
      case 3:
        return "CASE WHEN " + Bool(depth - 1) + " THEN " + Num(depth - 1) +
               " ELSE " + Num(depth - 1) + " END";
      case 4:
        return "CASE WHEN " + Bool(depth - 1) + " THEN " + Num(depth - 1) +
               " WHEN " + Bool(depth - 1) + " THEN " + Num(depth - 1) + " END";
      case 5:
        return "coalesce(" + Num(depth - 1) + ", " + Num(depth - 1) + ")";
      case 6: {
        // From a number or a string (parsed, NULL when it is no number).
        const std::string arg =
            rng_.Bernoulli(0.7) ? Num(depth - 1) : Str(depth - 1);
        return rng_.Bernoulli(0.5) ? "CAST(" + arg + " AS double)"
                                   : "CAST(" + arg + " AS bigint)";
      }
      case 7:
        return "length(" + Str(depth - 1) + ")";
      case 8:
        return rng_.Bernoulli(0.5)
                   ? "round(" + Num(depth - 1) + ")"
                   : "round(" + Num(depth - 1) + ", " +
                         std::to_string(rng_.Uniform(-2, 2)) + ")";
      case 9:
        return "year(" + Num(depth - 1) + ")";
      default:
        return "abs(" + Num(depth - 1) + ")";
    }
  }

  std::string Str(int depth) {
    static const char* kLeaves[] = {"s", "t.s", "'pear'", "''", "NULL"};
    if (depth <= 0 || rng_.Bernoulli(0.3)) return kLeaves[rng_.Uniform(0, 4)];
    switch (functions ? rng_.Uniform(0, 6) : 0) {
      case 0:
        return "CASE WHEN " + Bool(depth - 1) + " THEN " + Str(depth - 1) +
               " ELSE " + Str(depth - 1) + " END";
      case 1:
        return "coalesce(" + Str(depth - 1) + ", 'none')";
      case 2:
        // Text by the operand's bound type: bool columns print true/false,
        // comparisons 1/0.
        return "CAST(" + Any(depth - 1) + " AS varchar)";
      case 3:
        return rng_.Bernoulli(0.5)
                   ? "substr(" + Str(depth - 1) + ", " + Num(depth - 1) + ")"
                   : "substr(" + Str(depth - 1) + ", " + Num(depth - 1) +
                         ", " + Num(depth - 1) + ")";
      case 4:
        return "concat(" + Any(depth - 1) + ", " + Any(depth - 1) + ")";
      case 5:
        return "(" + Any(depth - 1) + " || " + Any(depth - 1) + ")";
      default:
        return "lower(" + Str(depth - 1) + ")";
    }
  }

  std::string Bool(int depth) {
    static const char* kCmp[] = {"=", "<>", "<", "<=", ">", ">="};
    if (depth <= 0) return rng_.Bernoulli(0.5) ? "b" : "(i > 0)";
    switch (rng_.Uniform(0, 8)) {
      case 0:
        return "(" + Num(depth - 1) + " " + kCmp[rng_.Uniform(0, 5)] + " " +
               Num(depth - 1) + ")";
      case 1:
        return "(" + Str(depth - 1) + " " + kCmp[rng_.Uniform(0, 5)] + " " +
               Str(depth - 1) + ")";
      case 2:
        return "(" + Num(depth - 1) + " BETWEEN " + Num(depth - 1) + " AND " +
               Num(depth - 1) + ")";
      case 3:
        return "(" + Num(depth - 1) + (rng_.Bernoulli(0.5) ? " NOT" : "") +
               " IN (1, 2.5, NULL, " + Num(depth - 1) + "))";
      case 4:
        return "(" + Str(depth - 1) +
               (rng_.Bernoulli(0.5) ? " LIKE 'p%'" : " LIKE '%e_'") + ")";
      case 5:
        return "(" + Any(depth - 1) + " IS " +
               (rng_.Bernoulli(0.5) ? "NOT " : "") + "NULL)";
      case 6:
        return "(NOT " + Bool(depth - 1) + ")";
      case 7:
        return "(" + Bool(depth - 1) + " AND " + Bool(depth - 1) + ")";
      default:
        return "(" + Bool(depth - 1) + " OR " + Bool(depth - 1) + ")";
    }
  }

 private:
  Random rng_;
};

/// `rows` rows of t.i (int64), t.d (double), t.s (string), t.b (bool),
/// t.dt (date) and t.j (int32); each value NULL with probability
/// `null_p`.
RowBatchPtr TypedBatch(uint64_t seed, int rows, double null_p) {
  Random rng(seed);
  const std::pair<const char*, TypeId> cols[] = {
      {"t.i", TypeId::kInt64}, {"t.d", TypeId::kDouble},
      {"t.s", TypeId::kString}, {"t.b", TypeId::kBool},
      {"t.dt", TypeId::kDate}, {"t.j", TypeId::kInt32}};
  const char* words[] = {"pear", "plum", "apple", "", "peel"};
  auto batch = std::make_shared<RowBatch>();
  for (const auto& [name, type] : cols) {
    auto v = MakeVector(type);
    for (int r = 0; r < rows; ++r) {
      if (rng.Bernoulli(null_p)) {
        v->AppendNull();
      } else if (type == TypeId::kDouble) {
        v->AppendDouble(rng.UniformDouble(-20.0, 20.0));
      } else if (type == TypeId::kString) {
        v->AppendString(words[rng.Uniform(0, 4)]);
      } else if (type == TypeId::kBool) {
        v->AppendBool(rng.Bernoulli(0.5));
      } else {
        v->AppendInt(rng.Uniform(-20, 20));
      }
    }
    batch->AddColumn(name, std::move(v));
  }
  return batch;
}

class TypeContractTest : public ::testing::TestWithParam<int> {};

TEST_P(TypeContractTest, EvaluateReturnsTheBoundType) {
  ExprGen gen(static_cast<uint64_t>(GetParam()) * 6151 + 11);
  const RowBatchPtr dense = TypedBatch(GetParam(), 211, 0.15);
  const RowBatchPtr batches[] = {TypedBatch(1, 0, 0.0), TypedBatch(2, 37, 1.0),
                                 dense};
  std::vector<SelectionVector> sels;  // over `dense`: in place, then gathered
  sels.emplace_back();
  for (uint32_t r = 0; r < dense->num_rows(); r += 2) sels.back().push_back(r);
  sels.emplace_back();
  for (uint32_t r = 3; r < dense->num_rows(); r += 9) sels.back().push_back(r);

  for (int k = 0; k < 80; ++k) {
    gen.functions = k % 2 == 1;
    const std::string text = gen.Any(4);
    auto bound = BindExpr(text, *dense);
    ASSERT_TRUE(bound.ok()) << text << ": " << bound.status().ToString();
    const Expr& e = **bound;
    const TypeId type = *e.type;
    // Output column `col` (rows `rows` of it) against the reference over
    // `ref_batch`, row for row.
    auto check = [&](const ColumnVector& col, const std::vector<uint32_t>& rows,
                     const RowBatch& ref_batch, const std::string& what) {
      EXPECT_EQ(col.type(), type) << text << " " << what;
      auto ref = ReferenceEvaluate(e, ref_batch);
      ASSERT_TRUE(ref.ok()) << text << " " << what << ": " << ref.status().ToString();
      EXPECT_EQ((*ref)->type(), type) << text << " " << what;
      ASSERT_EQ((*ref)->size(), rows.size()) << text << " " << what;
      for (size_t i = 0; i < rows.size(); ++i) {
        ASSERT_EQ(col.IsNull(rows[i]), (*ref)->IsNull(i))
            << text << " " << what << " row " << i;
        if (!col.IsNull(rows[i])) {
          EXPECT_EQ(col.GetValue(rows[i]).Compare((*ref)->GetValue(i)), 0)
              << text << " " << what << " row " << i << ": "
              << col.GetValue(rows[i]).ToString() << " vs "
              << (*ref)->GetValue(i).ToString();
        }
      }
    };
    for (const auto& batch : batches) {
      std::vector<ColumnVectorPtr> cols;
      auto in = SelBatch{batch}.Evaluate({&e}, &cols);
      ASSERT_TRUE(in.ok()) << text << ": " << in.status().ToString();
      std::vector<uint32_t> all(batch->num_rows());
      for (uint32_t r = 0; r < all.size(); ++r) all[r] = r;
      check(*cols[0], all, *batch, "rows=" + std::to_string(all.size()));
    }
    for (const auto& sel : sels) {
      SelBatch sb{dense, std::make_shared<SelectionVector>(sel)};
      std::vector<ColumnVectorPtr> cols;
      auto in = sb.Evaluate({&e}, &cols);
      ASSERT_TRUE(in.ok()) << text << ": " << in.status().ToString();
      std::vector<uint32_t> rows = sel;  // in place: the selected rows
      if (in->sel == nullptr) {          // gathered: every row
        for (uint32_t i = 0; i < rows.size(); ++i) rows[i] = i;
      }
      check(*cols[0], rows, *dense->Gather(sel),
            "selected=" + std::to_string(sel.size()));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TypeContractTest, ::testing::Range(0, 8));

}  // namespace
}  // namespace pixels
