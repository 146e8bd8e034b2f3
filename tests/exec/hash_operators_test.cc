// Equivalence suite for the typed hash join/agg operators: every query
// must produce the rows of the row-at-a-time reference
// (testing/reference_exec.h) serial, parallel, and through the CF worker
// fleet, and bill the same bytes_scanned on every path. The matrix covers
// key types (int, double, string, multi-key), null patterns (null groups,
// null join keys, null agg arguments), key cardinality (2 ..
// every-row-distinct), duplicate build keys, residual conditions, LEFT
// JOIN padding, and COUNT(DISTINCT). Aggregate arguments (arithmetic,
// CASE, LIKE in CASE, and CASE arguments whose early batches take only
// the int branch) must match the reference value for value and type for
// type, and every output column has its bound type on every path.
//
// Join output pruning is checked shape by shape (LEFT JOIN, residual,
// cross and nested-loop, SELECT *, equal-basename self-join, count(*),
// DISTINCT, three-way) against the reference and the unpruned plan, and
// the concatenated build side against AppendFrom's type coercion.
//
// These tests also run under TSan in CI (gtest filter VectorizedHash*):
// the parallel runs exercise the batch-parallel hash prep + partition-
// parallel table builds.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "exec/executor.h"
#include "format/writer.h"
#include "plan/binder.h"
#include "plan/optimizer.h"
#include "storage/memory_store.h"
#include "testing/reference_exec.h"
#include "turbo/cf_worker.h"

namespace pixels {
namespace {

std::vector<std::string> SortedRows(const Table& t) {
  std::vector<std::string> rows;
  for (const auto& b : t.batches()) {
    for (size_t r = 0; r < b->num_rows(); ++r) {
      rows.push_back(b->RowToString(r));
    }
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

class VectorizedHashTest : public ::testing::Test {
 protected:
  void SetUp() override {
    storage_ = std::make_shared<MemoryStore>();
    catalog_ = std::make_shared<Catalog>(storage_);
    ASSERT_TRUE(catalog_->CreateDatabase("db").ok());
    FileSchema schema = {{"id", TypeId::kInt64},    {"grp2", TypeId::kInt64},
                         {"grpk", TypeId::kInt64},  {"kstr", TypeId::kString},
                         {"vint", TypeId::kInt64},  {"vdbl", TypeId::kDouble},
                         {"nint", TypeId::kInt64},  {"nstr", TypeId::kString},
                         {"ndbl", TypeId::kDouble}};
    ASSERT_TRUE(catalog_->CreateTable("db", "t", schema).ok());
    // Three files x small row groups so parallel runs have many morsels.
    WriterOptions wo;
    wo.row_group_size = 256;
    int64_t g = 0;
    for (int file = 0; file < 3; ++file) {
      PixelsWriter writer(schema, wo);
      for (int i = 0; i < 1200; ++i, ++g) {
        std::vector<Value> row = {
            Value::Int(g),
            Value::Int(g % 2),
            Value::Int(g % 97),
            Value::String("s" + std::to_string(g % 13)),
            Value::Int(g % 29),
            Value::Double(static_cast<double>(g % 7) * 1.5),
            g % 3 == 0 ? Value::Null() : Value::Int(g % 11),
            g % 5 == 0 ? Value::Null()
                       : Value::String("t" + std::to_string(g % 4)),
            g % 4 == 0 ? Value::Null()
                       : Value::Double(static_cast<double>(g % 5) * 0.25)};
        ASSERT_TRUE(writer.AppendRow(row).ok());
      }
      const std::string path = "db/t/part" + std::to_string(file) + ".pxl";
      ASSERT_TRUE(writer.Finish(storage_.get(), path).ok());
      ASSERT_TRUE(catalog_->AddTableFile("db", "t", path).ok());
    }
  }

  TablePtr Run(const std::string& sql, int parallelism, uint64_t* bytes,
               uint64_t* rf_skipped = nullptr) {
    ExecContext ctx;
    ctx.catalog = catalog_.get();
    ctx.parallelism = parallelism;
    auto r = ExecuteQuery(sql, "db", &ctx);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    if (bytes != nullptr) *bytes = ctx.bytes_scanned;
    if (rf_skipped != nullptr) *rf_skipped = ctx.rf_skipped_bytes;
    return r.ok() ? *r : nullptr;
  }

  /// The reference result; `*bytes` gets its (runtime-filters-off) bill.
  TablePtr Reference(const std::string& sql, uint64_t* bytes) {
    ExecContext ctx;
    ctx.catalog = catalog_.get();
    ctx.parallelism = 1;
    auto r = ReferenceQuery(sql, "db", &ctx);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    *bytes = ctx.bytes_scanned;
    return r.ok() ? *r : nullptr;
  }

  Result<CfExecution> RunFleet(const std::string& sql,
                               OptimizerOptions optimizer = {}) {
    PIXELS_ASSIGN_OR_RETURN(PlanPtr plan, PlanQuery(sql, *catalog_, "db"));
    PIXELS_ASSIGN_OR_RETURN(plan,
                            Optimize(std::move(plan), *catalog_, optimizer));
    CfWorkerOptions options;
    options.num_workers = 3;
    return ExecuteWithCfPushdown(plan, catalog_.get(), options);
  }

  /// Runs `sql` serial, at parallelism 4, and through a 3-worker CF fleet,
  /// and asserts each returns the reference row set. Serial and parallel
  /// bill the same bytes, which plus the runtime-filter savings equal the
  /// reference's filter-free bill. (Fleet workers of a join each scan
  /// the unpartitioned side, so a join's fleet bill is larger by design;
  /// CfFleetBillsIdenticallyToDirectAndOracle checks an aggregate's.)
  void ExpectAllPathsAgree(const std::string& sql) {
    uint64_t ref_bytes = 0, serial_bytes = 0, par_bytes = 0, skipped = 0;
    TablePtr reference = Reference(sql, &ref_bytes);
    TablePtr serial = Run(sql, 1, &serial_bytes, &skipped);
    TablePtr par = Run(sql, 4, &par_bytes);
    auto fleet = RunFleet(sql);
    ASSERT_NE(reference, nullptr) << sql;
    ASSERT_NE(serial, nullptr) << sql;
    ASSERT_NE(par, nullptr) << sql;
    ASSERT_TRUE(fleet.ok()) << sql << " -> " << fleet.status().ToString();
    const auto expected = SortedRows(*reference);
    EXPECT_EQ(expected, SortedRows(*serial)) << sql;
    EXPECT_EQ(expected, SortedRows(*par)) << sql;
    EXPECT_EQ(expected, SortedRows(*fleet->result)) << sql;
    EXPECT_EQ(serial_bytes, par_bytes) << sql;
    EXPECT_EQ(ref_bytes, serial_bytes + skipped) << sql;
  }

  /// Join output pruning against the reference and against the unpruned
  /// plan: ExpectAllPathsAgree (pruned), then the same query optimized
  /// with prune_projections=false, serial, at parallelism 4 and through a
  /// 3-worker CF fleet, must return the same rows.
  void ExpectPrunedJoinAgrees(const std::string& sql) {
    ExpectAllPathsAgree(sql);
    uint64_t ref_bytes = 0;
    TablePtr reference = Reference(sql, &ref_bytes);
    ASSERT_NE(reference, nullptr) << sql;
    const auto expected = SortedRows(*reference);
    OptimizerOptions unpruned;
    unpruned.prune_projections = false;
    for (int par : {1, 4}) {
      auto plan = PlanQuery(sql, *catalog_, "db");
      ASSERT_TRUE(plan.ok()) << sql;
      auto optimized = Optimize(*plan, *catalog_, unpruned);
      ASSERT_TRUE(optimized.ok()) << sql;
      ExecContext ctx;
      ctx.catalog = catalog_.get();
      ctx.parallelism = par;
      auto r = ExecutePlan(*optimized, &ctx);
      ASSERT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
      EXPECT_EQ(expected, SortedRows(**r)) << sql << " unpruned par=" << par;
    }
    auto fleet = RunFleet(sql, unpruned);
    ASSERT_TRUE(fleet.ok()) << sql << " -> " << fleet.status().ToString();
    EXPECT_EQ(expected, SortedRows(*fleet->result)) << sql << " unpruned";
  }

  /// Runs `sql` through the reference, serial, at parallelism 4 and
  /// through a 3-worker CF fleet: every path returns the reference rows,
  /// and every batch's columns have `types`.
  void ExpectTypedPathsAgree(const std::string& sql,
                             const std::vector<TypeId>& types) {
    uint64_t ref_bytes = 0;
    TablePtr reference = Reference(sql, &ref_bytes);
    TablePtr serial = Run(sql, 1, nullptr);
    TablePtr par = Run(sql, 4, nullptr);
    auto fleet = RunFleet(sql);
    ASSERT_NE(reference, nullptr) << sql;
    ASSERT_NE(serial, nullptr) << sql;
    ASSERT_NE(par, nullptr) << sql;
    ASSERT_TRUE(fleet.ok()) << sql << " -> " << fleet.status().ToString();
    const std::pair<const char*, const Table*> paths[] = {
        {"reference", reference.get()},
        {"serial", serial.get()},
        {"parallel", par.get()},
        {"fleet", fleet->result.get()}};
    for (const auto& [path, table] : paths) {
      EXPECT_EQ(SortedRows(*table), SortedRows(*reference)) << sql << " " << path;
      for (const auto& batch : table->batches()) {
        ASSERT_EQ(batch->num_columns(), types.size()) << sql << " " << path;
        for (size_t c = 0; c < types.size(); ++c) {
          EXPECT_EQ(batch->column(c)->type(), types[c])
              << sql << " " << path << " col=" << c;
        }
      }
    }
  }

  std::shared_ptr<MemoryStore> storage_;
  std::shared_ptr<Catalog> catalog_;
};

/// Exact equality: same numeric family (or both strings), equal value.
bool SameValue(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return a.is_null() == b.is_null();
  const bool a_dbl = a.kind == Value::Kind::kDouble;
  if (a_dbl != (b.kind == Value::Kind::kDouble)) return false;
  return a_dbl ? a.d == b.d : a.Compare(b) == 0;
}

TEST_F(VectorizedHashTest, LowCardinalityIntGroupBy) {
  ExpectAllPathsAgree(
      "SELECT grp2, count(*) AS n, sum(vint) AS s, min(vdbl) AS lo, "
      "max(kstr) AS hi FROM t GROUP BY grp2");
}

TEST_F(VectorizedHashTest, NullGroupsAggregateTogether) {
  ExpectAllPathsAgree(
      "SELECT nint, count(*) AS n, sum(vdbl) AS s, avg(vint) AS a "
      "FROM t GROUP BY nint");
}

TEST_F(VectorizedHashTest, EveryRowDistinctGroupBy) {
  ExpectAllPathsAgree("SELECT id, sum(vint) AS s FROM t GROUP BY id");
}

TEST_F(VectorizedHashTest, MultiKeyGroupByWithNullArguments) {
  ExpectAllPathsAgree(
      "SELECT grpk, kstr, count(*) AS n, min(nint) AS lo, max(ndbl) AS hi, "
      "sum(nint) AS s FROM t GROUP BY grpk, kstr");
}

TEST_F(VectorizedHashTest, StringKeyGroupBy) {
  ExpectAllPathsAgree(
      "SELECT nstr, count(*) AS n, min(kstr) AS lo FROM t GROUP BY nstr");
}

TEST_F(VectorizedHashTest, GlobalAggregation) {
  ExpectAllPathsAgree(
      "SELECT count(*) AS n, sum(nint) AS s, min(nstr) AS lo, max(vdbl) AS "
      "hi, avg(ndbl) AS a FROM t");
}

TEST_F(VectorizedHashTest, CountDistinctStaysExact) {
  ExpectAllPathsAgree(
      "SELECT grp2, count(DISTINCT kstr) AS d, count(DISTINCT nint) AS dn "
      "FROM t GROUP BY grp2");
}

TEST_F(VectorizedHashTest, FilterFeedsSelectionVectorIntoAggregation) {
  ExpectAllPathsAgree(
      "SELECT grpk, sum(vint) AS s, count(*) AS n FROM t WHERE vint < 10 "
      "GROUP BY grpk");
}

TEST_F(VectorizedHashTest, SelectiveEquiJoin) {
  ExpectAllPathsAgree(
      "SELECT a.id, b.grpk FROM t a JOIN t b ON a.id = b.id "
      "WHERE b.vint < 5");
}

TEST_F(VectorizedHashTest, DuplicateBuildKeysExpandAllMatches) {
  ExpectAllPathsAgree(
      "SELECT a.grpk, count(*) AS n FROM t a JOIN t b ON a.grpk = b.grpk "
      "WHERE a.vint < 3 AND b.vint < 3 GROUP BY a.grpk");
}

TEST_F(VectorizedHashTest, NullJoinKeysNeverMatch) {
  ExpectAllPathsAgree(
      "SELECT a.id, b.id FROM t a JOIN t b ON a.nint = b.nint "
      "WHERE a.id < 40 AND b.id < 40");
}

TEST_F(VectorizedHashTest, StringKeyJoin) {
  ExpectAllPathsAgree(
      "SELECT a.id, b.id FROM t a JOIN t b ON a.nstr = b.nstr "
      "WHERE a.id < 25 AND b.id < 25");
}

TEST_F(VectorizedHashTest, ResidualConditionAfterEquiMatch) {
  ExpectAllPathsAgree(
      "SELECT a.id, b.id FROM t a JOIN t b "
      "ON a.grpk = b.grpk AND a.vint < b.vint "
      "WHERE a.id < 60 AND b.id < 60");
}

TEST_F(VectorizedHashTest, LeftJoinPadsUnmatchedProbeRows) {
  ExpectAllPathsAgree(
      "SELECT a.id, b.id FROM t a LEFT JOIN t b ON a.nint = b.id "
      "WHERE a.id < 50");
}

TEST_F(VectorizedHashTest, JoinThenAggregatePipelines) {
  ExpectAllPathsAgree(
      "SELECT a.grp2, b.kstr, sum(a.vint) AS s, count(*) AS n "
      "FROM t a JOIN t b ON a.id = b.id WHERE a.vdbl < 6.0 "
      "GROUP BY a.grp2, b.kstr");
}

// Join output pruning: each shape below keeps only the join columns read
// above it, and must agree with the reference and the unpruned plan.

TEST_F(VectorizedHashTest, PrunedLeftJoinGathersThePaddingRow) {
  ExpectPrunedJoinAgrees(
      "SELECT a.kstr, b.vdbl, b.nstr FROM t a LEFT JOIN t b ON a.nint = b.id "
      "WHERE a.id < 50");
}

TEST_F(VectorizedHashTest, PrunedResidualReadsColumnsNotKept) {
  // The residual reads a.vint and b.vint; neither is in the output.
  ExpectPrunedJoinAgrees(
      "SELECT a.kstr, b.nstr FROM t a JOIN t b "
      "ON a.grpk = b.grpk AND a.vint < b.vint WHERE a.id < 60 AND b.id < 60");
}

TEST_F(VectorizedHashTest, PrunedCrossAndNestedLoopJoins) {
  ExpectPrunedJoinAgrees(
      "SELECT a.id, b.kstr FROM t a CROSS JOIN t b "
      "WHERE a.id < 20 AND b.id < 15");
  ExpectPrunedJoinAgrees(
      "SELECT a.kstr, b.ndbl FROM t a JOIN t b ON a.vint < b.grp2 "
      "WHERE a.id < 30 AND b.id < 30");
}

TEST_F(VectorizedHashTest, SelectStarOverJoinPrunesNothing) {
  ExpectPrunedJoinAgrees(
      "SELECT * FROM t a JOIN t b ON a.id = b.grpk WHERE a.id < 30");
}

TEST_F(VectorizedHashTest, PrunedSelfJoinWithEqualBasenames) {
  // Every column exists on both sides under the same basename.
  ExpectPrunedJoinAgrees(
      "SELECT a.vint, b.vint, a.nstr FROM t a JOIN t b ON a.grpk = b.id "
      "WHERE b.vint < 3");
}

TEST_F(VectorizedHashTest, CountStarOverJoinKeepsOneColumn) {
  ExpectPrunedJoinAgrees(
      "SELECT count(*) AS n FROM t a JOIN t b ON a.grpk = b.grpk "
      "WHERE a.vint < 3 AND b.vint < 3");
}

TEST_F(VectorizedHashTest, DistinctOverPrunedJoinColumns) {
  ExpectPrunedJoinAgrees(
      "SELECT DISTINCT a.grp2, b.kstr FROM t a JOIN t b ON a.id = b.id "
      "WHERE a.vint < 10");
}

TEST_F(VectorizedHashTest, PrunedThreeWayJoin) {
  ExpectPrunedJoinAgrees(
      "SELECT a.kstr, c.nstr, sum(b.vdbl) AS s, count(*) AS n FROM t a "
      "JOIN t b ON a.id = b.id JOIN t c ON b.grpk = c.id WHERE a.vint < 5 "
      "GROUP BY a.kstr, c.nstr");
}

TEST_F(VectorizedHashTest, BuildColumnTypedIntThenDoubleCoercesLikeAppend) {
  // A view's build batches hold b.v as int64 in one batch and double in
  // the next. The concatenated build column keeps the first batch's type
  // and converts the rest as ColumnVector::AppendFrom does.
  auto ints = [](std::vector<int64_t> vals) {
    auto c = MakeVector(TypeId::kInt64);
    for (int64_t v : vals) c->AppendInt(v);
    return c;
  };
  auto probe = std::make_shared<Table>();
  auto pb = std::make_shared<RowBatch>();
  pb->AddColumn("p.k", ints({1, 2, 3, 4}));
  probe->AddBatch(pb);
  auto build = std::make_shared<Table>();
  auto b1 = std::make_shared<RowBatch>();
  b1->AddColumn("b.k", ints({1, 2}));
  b1->AddColumn("b.v", ints({10, 20}));
  auto b2 = std::make_shared<RowBatch>();
  b2->AddColumn("b.k", ints({3, 5}));
  auto dbl = MakeVector(TypeId::kDouble);
  dbl->AppendDouble(2.5);
  dbl->AppendDouble(7.75);
  b2->AddColumn("b.v", dbl);
  build->AddBatch(b1);
  build->AddBatch(b2);

  // The AppendFrom oracle for b.v over probe keys 1..3 (4 is unmatched).
  auto want = MakeVector(TypeId::kInt64);
  want->AppendFrom(*b1->column(1), 0);
  want->AppendFrom(*b1->column(1), 1);
  want->AppendFrom(*dbl, 0);
  want->AppendNull();

  for (auto type : {JoinClause::Type::kInner, JoinClause::Type::kLeft}) {
    for (int par : {1, 4}) {
      PlanPtr plan = MakeJoin(MakeMaterializedView(probe),
                              MakeMaterializedView(build), type,
                              MakeBinary("=", MakeColumnRef("p", "k"),
                                         MakeColumnRef("b", "k")));
      ExecContext ctx;
      ctx.parallelism = par;
      auto r = ExecutePlan(plan, &ctx);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      const size_t rows = type == JoinClause::Type::kLeft ? 4 : 3;
      ASSERT_EQ((*r)->num_rows(), rows);
      const RowBatch& out = *(*r)->batches()[0];
      const int v = out.FindColumn("b.v");
      ASSERT_GE(v, 0);
      const ColumnVector& got = *out.column(static_cast<size_t>(v));
      EXPECT_EQ(got.type(), TypeId::kInt64);
      for (size_t i = 0; i < rows; ++i) {
        EXPECT_EQ(out.column(0)->GetInt(i), static_cast<int64_t>(i + 1));
        EXPECT_EQ(got.IsNull(i), want->IsNull(i)) << i;
        EXPECT_EQ(got.GetInt(i), want->GetInt(i)) << i;
      }
    }
  }
}

TEST_F(VectorizedHashTest, AggregateArgumentsMatchReferenceColumns) {
  const char* args[] = {
      // Arithmetic, with NULL operands and division by zero.
      "vint * (1 - vdbl)", "vint - nint", "vint / grp2", "ndbl * 2",
      // CASE with and without ELSE, and LIKE inside CASE.
      "CASE WHEN vint > 20 THEN vdbl ELSE 0 END",
      "CASE WHEN nstr = 't1' OR nstr = 't2' THEN 1 ELSE 0 END",
      "CASE WHEN nint > 5 THEN ndbl END",
      "CASE WHEN kstr LIKE 's1%' THEN vdbl * 2 ELSE 0 END",
      "CASE WHEN nstr LIKE 't_' THEN nint ELSE vdbl END",
      // Int rows in early batches, double rows in later ones (and the
      // reverse): the CASE is typed double from the first batch.
      "CASE WHEN id < 1000 THEN vint ELSE vdbl END",
      "CASE WHEN id >= 2600 THEN vint ELSE vdbl END"};
  for (const char* arg : args) {
    const std::string a(arg);
    const std::string sql = "SELECT grpk, sum(" + a + ") AS s, avg(" + a +
                            ") AS a, min(" + a + ") AS lo, max(" + a +
                            ") AS hi FROM t GROUP BY grpk";
    uint64_t ref_bytes = 0;
    TablePtr expected = Reference(sql, &ref_bytes);
    ASSERT_NE(expected, nullptr) << sql;
    ASSERT_EQ(expected->batches().size(), 1u) << sql;
    const RowBatch& want = *expected->batches()[0];
    std::map<int64_t, size_t> want_row;  // grpk -> reference row
    for (size_t r = 0; r < want.num_rows(); ++r) {
      want_row[want.column(0)->GetInt(r)] = r;
    }
    for (int par : {1, 4}) {
      TablePtr got = Run(sql, par, nullptr);
      ASSERT_NE(got, nullptr) << sql;
      ASSERT_EQ(got->batches().size(), 1u) << sql;
      const RowBatch& b = *got->batches()[0];
      // The same groups (parallel runs emit them in partition order),
      // every output column typed and valued like the reference's.
      ASSERT_EQ(b.num_rows(), want.num_rows()) << arg << " par=" << par;
      ASSERT_EQ(b.num_columns(), want.num_columns()) << arg;
      for (size_t c = 0; c < b.num_columns(); ++c) {
        EXPECT_EQ(b.column(c)->type(), want.column(c)->type())
            << arg << " par=" << par << " col=" << c;
        for (size_t r = 0; r < b.num_rows(); ++r) {
          auto it = want_row.find(b.column(0)->GetInt(r));
          ASSERT_NE(it, want_row.end()) << arg << " par=" << par;
          const Value g = b.column(c)->GetValue(r);
          const Value w = want.column(c)->GetValue(it->second);
          EXPECT_TRUE(SameValue(g, w))
              << arg << " par=" << par << " row=" << r << " col=" << c
              << ": got " << g.ToString() << ", want " << w.ToString();
        }
      }
    }
  }
}

TEST_F(VectorizedHashTest, ElseOnlyEarlyBatchesKeepTheDoubleState) {
  // Rows with id < 3000 (the first files' batches) all take ELSE 0: the
  // CASE is still typed double there, so SUM/MIN/MAX fold one double
  // state from the first batch on.
  const std::string arg = "CASE WHEN id >= 3000 THEN vdbl ELSE 0 END";
  const TypeId i64 = TypeId::kInt64, dbl = TypeId::kDouble;
  ExpectTypedPathsAgree("SELECT grpk, sum(" + arg + ") AS s, min(" + arg +
                            ") AS lo, max(" + arg + ") AS hi FROM t GROUP BY grpk",
                        {i64, dbl, dbl, dbl});
  ExpectTypedPathsAgree("SELECT sum(" + arg + ") AS s, min(" + arg +
                            ") AS lo, max(" + arg + ") AS hi FROM t",
                        {dbl, dbl, dbl});
}

TEST_F(VectorizedHashTest, CountDistinctOverDoubleAndStringKeys) {
  // 0.0 and -0.0 are distinct keys, NaN equals NaN, NULL never counts.
  FileSchema schema = {{"g", TypeId::kInt64},
                       {"d", TypeId::kDouble},
                       {"s", TypeId::kString}};
  ASSERT_TRUE(catalog_->CreateTable("db", "dk", schema).ok());
  const Value doubles[] = {Value::Double(0.0), Value::Double(-0.0),
                           Value::Double(std::nan("")), Value::Null(),
                           Value::Double(1.5)};
  const Value strings[] = {Value::String("x"), Value::String(""),
                           Value::Null(), Value::String("x0"),
                           Value::String("X")};
  for (int file = 0; file < 3; ++file) {
    PixelsWriter writer(schema);
    for (int i = 0; i < 40; ++i) {
      ASSERT_TRUE(writer
                      .AppendRow({Value::Int(i % 3), doubles[(i + file) % 5],
                                  strings[(i * 7 + file) % 5]})
                      .ok());
    }
    const std::string path = "db/dk/part" + std::to_string(file) + ".pxl";
    ASSERT_TRUE(writer.Finish(storage_.get(), path).ok());
    ASSERT_TRUE(catalog_->AddTableFile("db", "dk", path).ok());
  }
  const TypeId i64 = TypeId::kInt64;
  ExpectTypedPathsAgree(
      "SELECT g, count(DISTINCT d) AS nd, count(DISTINCT s) AS ns, "
      "count(d) AS n FROM dk GROUP BY g",
      {i64, i64, i64, i64});
  ExpectTypedPathsAgree(
      "SELECT count(DISTINCT d) AS nd, count(DISTINCT s) AS ns FROM dk",
      {i64, i64});
  TablePtr serial = Run("SELECT count(DISTINCT d), count(DISTINCT s) FROM dk",
                        1, nullptr);
  ASSERT_NE(serial, nullptr);
  EXPECT_EQ(SortedRows(*serial), (std::vector<std::string>{"4\t4"}));
}

TEST_F(VectorizedHashTest, GlobalAggregateOverNoRowsHasBoundTypes) {
  const TypeId i64 = TypeId::kInt64, dbl = TypeId::kDouble;
  ExpectTypedPathsAgree(
      "SELECT count(*) AS n, sum(vint) AS si, sum(vdbl) AS sd, avg(vint) AS a, "
      "min(kstr) AS lo, max(vdbl) AS hi, count(DISTINCT kstr) AS nd, "
      "sum(CASE WHEN vint > 3 THEN vdbl ELSE 0 END) AS c FROM t WHERE id < 0",
      {i64, i64, dbl, dbl, TypeId::kString, dbl, i64, dbl});
  TablePtr serial = Run("SELECT count(*), sum(vint), min(kstr) FROM t WHERE id < 0",
                        1, nullptr);
  ASSERT_NE(serial, nullptr);
  EXPECT_EQ(SortedRows(*serial), (std::vector<std::string>{"0\tNULL\tNULL"}));
}

TEST_F(VectorizedHashTest, LeftJoinPaddingTakesTheBuildSideTypes) {
  // An empty build side pads every probe row; the padding columns keep
  // the build table's string and double types.
  FileSchema schema = {{"k", TypeId::kInt64},
                       {"s", TypeId::kString},
                       {"d", TypeId::kDouble}};
  ASSERT_TRUE(catalog_->CreateTable("db", "e", schema).ok());
  const std::string sql =
      "SELECT t.id, e.s, e.d FROM t LEFT JOIN e ON t.id = e.k WHERE t.id < 5";
  ExpectTypedPathsAgree(sql, {TypeId::kInt64, TypeId::kString, TypeId::kDouble});
  TablePtr serial = Run(sql + " ORDER BY t.id", 1, nullptr);
  ASSERT_NE(serial, nullptr);
  EXPECT_EQ(serial->num_rows(), 5u);
}

TEST_F(VectorizedHashTest, HighParallelismPartitionBuildStaysDeterministic) {
  // More partitions than distinct keys in some groups; repeated runs must
  // agree exactly (this is the TSan target for partition-parallel builds).
  const std::string sql =
      "SELECT a.grpk, count(*) AS n, sum(b.vint) AS s FROM t a "
      "JOIN t b ON a.grpk = b.grpk WHERE a.vint < 2 AND b.vint < 2 "
      "GROUP BY a.grpk";
  uint64_t b1 = 0, b2 = 0;
  TablePtr r1 = Run(sql, 16, &b1);
  TablePtr r2 = Run(sql, 16, &b2);
  ASSERT_NE(r1, nullptr);
  ASSERT_NE(r2, nullptr);
  EXPECT_EQ(SortedRows(*r1), SortedRows(*r2));
  EXPECT_EQ(b1, b2);
  uint64_t serial_bytes = 0;
  TablePtr serial = Run(sql, 1, &serial_bytes);
  ASSERT_NE(serial, nullptr);
  EXPECT_EQ(SortedRows(*serial), SortedRows(*r1));
  EXPECT_EQ(serial_bytes, b1);
}

TEST_F(VectorizedHashTest, CfFleetBillsIdenticallyToDirectAndOracle) {
  // The CF seam: the sub-plan pushed to workers (partial aggregation per
  // worker, merged above the view) must return the reference rows and
  // bill the same bytes as direct execution.
  const std::string sql =
      "SELECT grpk, sum(vint) AS s, count(*) AS n FROM t WHERE vint < 20 "
      "GROUP BY grpk ORDER BY grpk";
  auto fleet = RunFleet(sql);
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
  EXPECT_TRUE(fleet->pushdown_used);
  EXPECT_EQ(fleet->workers_used, 3);
  uint64_t direct_bytes = 0, ref_bytes = 0;
  TablePtr direct = Run(sql, 1, &direct_bytes);
  TablePtr reference = Reference(sql, &ref_bytes);
  ASSERT_NE(direct, nullptr);
  ASSERT_NE(reference, nullptr);
  EXPECT_EQ(SortedRows(*reference), SortedRows(*fleet->result));
  EXPECT_EQ(SortedRows(*reference), SortedRows(*direct));
  EXPECT_EQ(fleet->bytes_scanned, direct_bytes);
  EXPECT_EQ(ref_bytes, direct_bytes);
}

}  // namespace
}  // namespace pixels
