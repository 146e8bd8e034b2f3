// Equivalence suite for the vectorized (typed hash table) join/agg path:
// every query must produce the same rows and bill the same bytes_scanned
// with `vectorized_hash` on or off, serial or parallel, and through the
// CF worker fleet. The matrix covers key types (int, double, string,
// multi-key), null patterns (null groups, null join keys, null agg
// arguments), key cardinality (2 .. every-row-distinct), duplicate build
// keys, residual conditions, LEFT JOIN padding, and COUNT(DISTINCT).
// Aggregate arguments (arithmetic, CASE, LIKE in CASE, and CASE arguments
// whose type flips between batches) must also equal folding the
// row-at-a-time reference column of every scanned batch.
//
// These tests also run under TSan in CI (gtest filter VectorizedHash*):
// the parallel runs exercise the batch-parallel hash prep + partition-
// parallel table builds.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "exec/executor.h"
#include "format/writer.h"
#include "plan/binder.h"
#include "plan/optimizer.h"
#include "sql/parser.h"
#include "storage/memory_store.h"
#include "testing/reference_eval.h"
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

  TablePtr Run(const std::string& sql, bool vectorized, int parallelism,
               uint64_t* bytes) {
    ExecContext ctx;
    ctx.catalog = catalog_.get();
    ctx.vectorized_hash = vectorized;
    ctx.parallelism = parallelism;
    auto r = ExecuteQuery(sql, "db", &ctx);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    if (bytes != nullptr) *bytes = ctx.bytes_scanned;
    return r.ok() ? *r : nullptr;
  }

  /// Runs `sql` through {scalar, typed} x {serial, parallel 4} and
  /// asserts identical row sets and byte-identical bytes_scanned.
  void ExpectAllPathsAgree(const std::string& sql) {
    uint64_t bytes[4] = {0, 0, 0, 0};
    TablePtr scalar_serial = Run(sql, false, 1, &bytes[0]);
    TablePtr typed_serial = Run(sql, true, 1, &bytes[1]);
    TablePtr scalar_par = Run(sql, false, 4, &bytes[2]);
    TablePtr typed_par = Run(sql, true, 4, &bytes[3]);
    ASSERT_NE(scalar_serial, nullptr) << sql;
    ASSERT_NE(typed_serial, nullptr) << sql;
    ASSERT_NE(scalar_par, nullptr) << sql;
    ASSERT_NE(typed_par, nullptr) << sql;
    const auto expected = SortedRows(*scalar_serial);
    EXPECT_EQ(expected, SortedRows(*typed_serial)) << sql;
    EXPECT_EQ(expected, SortedRows(*scalar_par)) << sql;
    EXPECT_EQ(expected, SortedRows(*typed_par)) << sql;
    EXPECT_EQ(bytes[0], bytes[1]) << sql;
    EXPECT_EQ(bytes[0], bytes[2]) << sql;
    EXPECT_EQ(bytes[0], bytes[3]) << sql;
  }

  /// grpk -> {sum, avg, min, max} of `arg`: the reference column of every
  /// scanned batch, folded row by row as AggState::Update folds values.
  std::map<int64_t, std::vector<Value>> ReferenceAggregate(
      const std::string& arg) {
    struct Acc {
      int64_t count = 0, sum_i = 0;
      double sum_d = 0;
      bool any_double = false;
      Value min, max;
    };
    std::map<int64_t, Acc> accs;
    auto expr = ParseExpression(arg);
    EXPECT_TRUE(expr.ok()) << arg;
    TablePtr all = Run("SELECT * FROM t", true, 1, nullptr);
    if (!expr.ok() || all == nullptr) return {};
    for (const auto& batch : all->batches()) {
      auto col = ReferenceEvaluate(**expr, *batch);
      EXPECT_TRUE(col.ok()) << arg << ": " << col.status().ToString();
      if (!col.ok()) return {};
      const ColumnVector& keys = *batch->column(batch->FindColumn("grpk"));
      for (size_t r = 0; r < batch->num_rows(); ++r) {
        const Value v = (*col)->GetValue(r);
        if (v.is_null()) continue;
        Acc& acc = accs[keys.GetInt(r)];
        ++acc.count;
        if (v.kind == Value::Kind::kDouble) {
          acc.any_double = true;
          acc.sum_d += v.d;
        } else {
          acc.sum_i += v.i;
          acc.sum_d += static_cast<double>(v.i);
        }
        if (acc.count == 1 || v.Compare(acc.min) < 0) acc.min = v;
        if (acc.count == 1 || v.Compare(acc.max) > 0) acc.max = v;
      }
    }
    std::map<int64_t, std::vector<Value>> out;
    for (const auto& [key, acc] : accs) {
      out[key] = {acc.any_double ? Value::Double(acc.sum_d)
                                 : Value::Int(acc.sum_i),
                  Value::Double(acc.sum_d / static_cast<double>(acc.count)),
                  acc.min, acc.max};
    }
    return out;
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
      // Int in early batches, double in later ones (and the reverse):
      // the typed states change numeric family mid-stream.
      "CASE WHEN id < 1000 THEN vint ELSE vdbl END",
      "CASE WHEN id >= 2600 THEN vint ELSE vdbl END"};
  for (const char* arg : args) {
    const auto expected = ReferenceAggregate(arg);
    ASSERT_FALSE(expected.empty()) << arg;
    const std::string a(arg);
    const std::string sql = "SELECT grpk, sum(" + a + ") AS s, avg(" + a +
                            ") AS a, min(" + a + ") AS lo, max(" + a +
                            ") AS hi FROM t GROUP BY grpk";
    for (int par : {1, 4}) {
      TablePtr got = Run(sql, true, par, nullptr);
      ASSERT_NE(got, nullptr) << sql;
      size_t groups = 0;
      for (const auto& b : got->batches()) {
        groups += b->num_rows();
        // Output columns are typed over the whole batch, like any
        // BuildVectorFromValues result.
        for (size_t c = 0; c < 4; ++c) {
          std::vector<Value> want;
          for (size_t r = 0; r < b->num_rows(); ++r) {
            auto it = expected.find(b->column(0)->GetInt(r));
            ASSERT_NE(it, expected.end()) << arg;
            want.push_back(it->second[c]);
          }
          auto want_col = BuildVectorFromValues(want);
          ASSERT_TRUE(want_col.ok()) << arg;
          const ColumnVector& got_col = *b->column(c + 1);
          EXPECT_EQ(got_col.type(), (*want_col)->type())
              << arg << " par=" << par << " col=" << c;
          for (size_t r = 0; r < b->num_rows(); ++r) {
            const Value g = got_col.GetValue(r);
            const Value w = (*want_col)->GetValue(r);
            EXPECT_TRUE(SameValue(g, w))
                << arg << " par=" << par << " row=" << r << " col=" << c
                << ": got " << g.ToString() << ", want " << w.ToString();
          }
        }
      }
      EXPECT_EQ(groups, expected.size()) << arg << " par=" << par;
    }
  }
}

TEST_F(VectorizedHashTest, LoadFactorKnobDoesNotChangeResults) {
  const std::string sql =
      "SELECT grpk, count(*) AS n, sum(vint) AS s FROM t GROUP BY grpk";
  uint64_t base_bytes = 0;
  TablePtr base = Run(sql, true, 1, &base_bytes);
  ASSERT_NE(base, nullptr);
  for (double lf : {0.2, 0.9}) {
    ExecContext ctx;
    ctx.catalog = catalog_.get();
    ctx.vectorized_hash = true;
    ctx.hash_table_load_factor = lf;
    auto r = ExecuteQuery(sql, "db", &ctx);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(SortedRows(*base), SortedRows(**r)) << "load_factor=" << lf;
    EXPECT_EQ(base_bytes, ctx.bytes_scanned) << "load_factor=" << lf;
  }
}

TEST_F(VectorizedHashTest, HighParallelismPartitionBuildStaysDeterministic) {
  // More partitions than distinct keys in some groups; repeated runs must
  // agree exactly (this is the TSan target for partition-parallel builds).
  const std::string sql =
      "SELECT a.grpk, count(*) AS n, sum(b.vint) AS s FROM t a "
      "JOIN t b ON a.grpk = b.grpk WHERE a.vint < 2 AND b.vint < 2 "
      "GROUP BY a.grpk";
  uint64_t b1 = 0, b2 = 0;
  TablePtr r1 = Run(sql, true, 16, &b1);
  TablePtr r2 = Run(sql, true, 16, &b2);
  ASSERT_NE(r1, nullptr);
  ASSERT_NE(r2, nullptr);
  EXPECT_EQ(SortedRows(*r1), SortedRows(*r2));
  EXPECT_EQ(b1, b2);
  uint64_t serial_bytes = 0;
  TablePtr serial = Run(sql, true, 1, &serial_bytes);
  ASSERT_NE(serial, nullptr);
  EXPECT_EQ(SortedRows(*serial), SortedRows(*r1));
  EXPECT_EQ(serial_bytes, b1);
}

TEST_F(VectorizedHashTest, CfFleetBillsIdenticallyWithKnobOnAndOff) {
  // The CF seam: the same sub-plan pushed to workers must return the same
  // rows and bill the same bytes whether workers run typed or scalar.
  const std::string sql =
      "SELECT grpk, sum(vint) AS s, count(*) AS n FROM t WHERE vint < 20 "
      "GROUP BY grpk ORDER BY grpk";
  auto plan = [&]() {
    auto p = PlanQuery(sql, *catalog_, "db");
    EXPECT_TRUE(p.ok()) << p.status().ToString();
    auto o = Optimize(std::move(p).ValueOrDie(), *catalog_);
    EXPECT_TRUE(o.ok());
    return o.ok() ? *o : nullptr;
  };
  CfWorkerOptions on;
  on.num_workers = 3;
  on.vectorized_hash = true;
  auto exec_on = ExecuteWithCfPushdown(plan(), catalog_.get(), on);
  ASSERT_TRUE(exec_on.ok()) << exec_on.status().ToString();

  CfWorkerOptions off;
  off.num_workers = 3;
  off.vectorized_hash = false;
  auto exec_off = ExecuteWithCfPushdown(plan(), catalog_.get(), off);
  ASSERT_TRUE(exec_off.ok()) << exec_off.status().ToString();

  EXPECT_EQ(SortedRows(*exec_on->result), SortedRows(*exec_off->result));
  EXPECT_EQ(exec_on->bytes_scanned, exec_off->bytes_scanned);

  // And both match direct (non-CF) execution.
  uint64_t direct_bytes = 0;
  TablePtr direct = Run(sql, true, 1, &direct_bytes);
  ASSERT_NE(direct, nullptr);
  EXPECT_EQ(SortedRows(*direct), SortedRows(*exec_on->result));
}

}  // namespace
}  // namespace pixels
