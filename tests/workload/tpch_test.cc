#include "workload/tpch.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>

#include "exec/executor.h"
#include "storage/memory_store.h"

namespace pixels {
namespace {

class TpchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    storage_ = std::make_shared<MemoryStore>();
    catalog_ = std::make_shared<Catalog>(storage_);
    TpchOptions options;
    options.scale_factor = 0.001;  // 6000 lineitems
    options.rows_per_file = 2500;
    ASSERT_TRUE(GenerateTpch(catalog_.get(), "tpch", options).ok());
    ctx_.catalog = catalog_.get();
  }

  TablePtr Run(const std::string& sql) {
    auto r = ExecuteQuery(sql, "tpch", &ctx_);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    return r.ok() ? *r : nullptr;
  }

  std::shared_ptr<MemoryStore> storage_;
  std::shared_ptr<Catalog> catalog_;
  ExecContext ctx_;
};

TEST_F(TpchTest, TablesExistWithExpectedCardinalities) {
  auto region = catalog_->GetTable("tpch", "region");
  ASSERT_TRUE(region.ok());
  EXPECT_EQ((*region)->row_count, 5u);
  auto nation = catalog_->GetTable("tpch", "nation");
  ASSERT_TRUE(nation.ok());
  EXPECT_EQ((*nation)->row_count, 25u);
  auto customer = catalog_->GetTable("tpch", "customer");
  ASSERT_TRUE(customer.ok());
  EXPECT_EQ((*customer)->row_count, 150u);
  auto orders = catalog_->GetTable("tpch", "orders");
  ASSERT_TRUE(orders.ok());
  EXPECT_EQ((*orders)->row_count, 1500u);
  auto lineitem = catalog_->GetTable("tpch", "lineitem");
  ASSERT_TRUE(lineitem.ok());
  EXPECT_EQ((*lineitem)->row_count, 6000u);
  // lineitem spans multiple files at this rows_per_file.
  EXPECT_GE((*lineitem)->files.size(), 2u);
}

TEST_F(TpchTest, GenerationIsDeterministic) {
  auto storage2 = std::make_shared<MemoryStore>();
  auto catalog2 = std::make_shared<Catalog>(storage2);
  TpchOptions options;
  options.scale_factor = 0.001;
  options.rows_per_file = 2500;
  ASSERT_TRUE(GenerateTpch(catalog2.get(), "tpch", options).ok());
  // Same bytes for same seed.
  auto files1 = storage_->List("");
  auto files2 = storage2->List("");
  ASSERT_TRUE(files1.ok() && files2.ok());
  ASSERT_EQ(files1->size(), files2->size());
  EXPECT_EQ(storage_->TotalBytes(), storage2->TotalBytes());
}

TEST_F(TpchTest, ForeignKeysJoinable) {
  // Every lineitem joins an order; every order joins a customer.
  auto t = Run(
      "SELECT count(*) AS n FROM lineitem l JOIN orders o ON l.l_orderkey = "
      "o.o_orderkey");
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->CollectColumn("n")[0].i, 6000);
  auto t2 = Run(
      "SELECT count(*) AS n FROM orders o JOIN customer c ON o.o_custkey = "
      "c.c_custkey");
  EXPECT_EQ(t2->CollectColumn("n")[0].i, 1500);
}

TEST_F(TpchTest, NationRegionMappingValid) {
  auto t = Run(
      "SELECT r.r_name, count(*) AS n FROM nation n JOIN region r ON "
      "n.n_regionkey = r.r_regionkey GROUP BY r.r_name ORDER BY r.r_name");
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->num_rows(), 5u);  // all five regions have nations
}

TEST_F(TpchTest, DatesWithinGenerationRange) {
  auto t = Run("SELECT min(o_orderdate) AS lo, max(o_orderdate) AS hi FROM orders");
  ASSERT_NE(t, nullptr);
  int64_t lo = t->CollectColumn("lo")[0].i;
  int64_t hi = t->CollectColumn("hi")[0].i;
  EXPECT_GE(lo, *ParseDate("1992-01-01"));
  EXPECT_LE(hi, *ParseDate("1999-01-01"));
}

TEST_F(TpchTest, AllCannedQueriesExecute) {
  for (const auto& q : TpchQuerySet()) {
    auto t = Run(q.sql);
    ASSERT_NE(t, nullptr) << q.name;
    EXPECT_GT(q.weight, 0) << q.name;
  }
}

// FNV-1a over every cell's type, null flag and exact payload bits.
uint64_t TableDigest(const Table& t) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&](const void* p, size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 0x100000001b3ULL;
    }
  };
  for (const auto& b : t.batches()) {
    for (size_t r = 0; r < b->num_rows(); ++r) {
      for (size_t c = 0; c < b->num_columns(); ++c) {
        const ColumnVector& col = *b->column(c);
        const uint8_t tag[2] = {static_cast<uint8_t>(col.type()),
                                static_cast<uint8_t>(col.IsNull(r))};
        mix(tag, 2);
        if (col.IsNull(r)) continue;
        if (col.type() == TypeId::kDouble) {
          const double d = col.GetDouble(r);
          mix(&d, sizeof d);
        } else if (col.type() == TypeId::kString) {
          mix(col.GetString(r).data(), col.GetString(r).size());
        } else {
          const int64_t v = col.GetInt(r);
          mix(&v, sizeof v);
        }
      }
    }
  }
  return h;
}

TEST_F(TpchTest, QuerySetResultDigestsArePinned) {
  // Serial results and bills of every query, pinned bit for bit from the
  // row-at-a-time expression evaluator and the boxed hash join/agg; the
  // column kernels and the typed hash tables must reproduce them.
  struct Pinned {
    const char* name;
    uint64_t digest;
    uint64_t bytes_scanned;
  };
  const Pinned pinned[] = {
      {"q1_pricing_summary", 0xcddf4287c6098c6aULL, 184546},
      {"q3_shipping_priority", 0xa336cdbd34655715ULL, 93447},
      {"q5_local_supplier", 0x3e1db6763af407a6ULL, 117600},
      {"q6_forecast_revenue", 0x28d499af8803fb04ULL, 142504},
      {"q12_shipmode_priority", 0x8478322bfc6d21bbULL, 34077},
      {"q14_promo_effect", 0x5530675858f8d818ULL, 72097},
      {"q_supplier_balance", 0xa0f60269d3a0e17eULL, 360},
      {"probe_count_orders", 0xc3bc3e3d1e5e29d4ULL, 1690},
      {"probe_top_customers", 0x7af43ec7771bb056ULL, 1441},
  };
  const auto& queries = TpchQuerySet();
  ASSERT_EQ(queries.size(), std::size(pinned));
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_EQ(queries[i].name, pinned[i].name);
    ExecContext ctx;
    ctx.catalog = catalog_.get();
    ctx.parallelism = 1;
    auto r = ExecuteQuery(queries[i].sql, "tpch", &ctx);
    ASSERT_TRUE(r.ok()) << pinned[i].name << ": " << r.status().ToString();
    EXPECT_EQ(TableDigest(**r), pinned[i].digest) << pinned[i].name;
    EXPECT_EQ(ctx.bytes_scanned.load(), pinned[i].bytes_scanned)
        << pinned[i].name;
  }
}

TEST_F(TpchTest, Q1ShapeIsCorrect) {
  auto t = Run(TpchQuerySet()[0].sql);  // q1_pricing_summary
  ASSERT_NE(t, nullptr);
  // Up to 6 (returnflag, linestatus) groups; at least 2 at tiny scale.
  EXPECT_GE(t->num_rows(), 2u);
  EXPECT_LE(t->num_rows(), 6u);
  // Aggregates positive.
  auto sums = t->CollectColumn("sum_base_price");
  for (const auto& v : sums) EXPECT_GT(v.AsDouble(), 0);
}

TEST_F(TpchTest, Q6RevenueIsPositive) {
  auto t = Run(TpchQuerySet()[3].sql);  // q6_forecast_revenue
  ASSERT_NE(t, nullptr);
  ASSERT_EQ(t->num_rows(), 1u);
  EXPECT_GT(t->CollectColumn("revenue")[0].AsDouble(), 0);
}

TEST_F(TpchTest, ZoneMapsPruneDateRangeScans) {
  ctx_.bytes_scanned = 0;
  Run("SELECT count(*) FROM lineitem WHERE l_shipdate < DATE '1800-01-01'");
  uint64_t pruned_bytes = ctx_.bytes_scanned;
  ctx_.bytes_scanned = 0;
  Run("SELECT count(*) FROM lineitem");
  uint64_t full_bytes = ctx_.bytes_scanned;
  EXPECT_LT(pruned_bytes, full_bytes / 2);
}

TEST_F(TpchTest, SynonymsNonEmpty) {
  EXPECT_GE(TpchSynonyms().size(), 5u);
}

TEST_F(TpchTest, Q12CountsPartitionCorrectly) {
  // high_line_count + low_line_count must equal the filtered join size.
  auto t = Run(
      "SELECT l.l_shipmode, sum(CASE WHEN o.o_orderpriority = '1-URGENT' OR "
      "o.o_orderpriority = '2-HIGH' THEN 1 ELSE 0 END) AS high_count, "
      "sum(CASE WHEN o.o_orderpriority <> '1-URGENT' AND o.o_orderpriority "
      "<> '2-HIGH' THEN 1 ELSE 0 END) AS low_count, count(*) AS total FROM "
      "orders o JOIN lineitem l ON o.o_orderkey = l.l_orderkey WHERE "
      "l.l_shipmode IN ('MAIL', 'SHIP') GROUP BY l.l_shipmode ORDER BY "
      "l.l_shipmode");
  ASSERT_NE(t, nullptr);
  auto highs = t->CollectColumn("high_count");
  auto lows = t->CollectColumn("low_count");
  auto totals = t->CollectColumn("total");
  ASSERT_EQ(totals.size(), 2u);  // MAIL and SHIP
  for (size_t i = 0; i < totals.size(); ++i) {
    EXPECT_EQ(highs[i].AsInt() + lows[i].AsInt(), totals[i].AsInt());
    EXPECT_GT(totals[i].AsInt(), 0);
  }
}

TEST_F(TpchTest, Q14PromoShareBetween0And100) {
  auto t = Run(TpchQuerySet()[5].sql);  // q14_promo_effect
  ASSERT_NE(t, nullptr);
  ASSERT_EQ(t->num_rows(), 1u);
  double share = t->CollectColumn("promo_revenue")[0].AsDouble();
  EXPECT_GE(share, 0.0);
  EXPECT_LE(share, 100.0);
  EXPECT_GT(share, 1.0);  // ~1/6 of part types are PROMO
}

TEST_F(TpchTest, PartAndSupplierJoinable) {
  auto t = Run(
      "SELECT count(*) AS n FROM lineitem l JOIN part p ON l.l_partkey = "
      "p.p_partkey");
  EXPECT_EQ(t->CollectColumn("n")[0].i, 6000);
  auto t2 = Run(
      "SELECT count(*) AS n FROM lineitem l JOIN supplier s ON l.l_suppkey "
      "= s.s_suppkey");
  EXPECT_EQ(t2->CollectColumn("n")[0].i, 6000);
}

TEST_F(TpchTest, ShipDatesAreClustered) {
  // Zone maps rely on the generator's date clustering: within one file,
  // the shipdate spread must be far below the full 7-year range.
  auto table = catalog_->GetTable("tpch", "lineitem");
  ASSERT_TRUE(table.ok());
  auto reader = PixelsReader::Open(storage_.get(), (*table)->files[0]);
  ASSERT_TRUE(reader.ok());
  auto stats = (*reader)->FileStats("l_shipdate");
  ASSERT_TRUE(stats.ok());
  int64_t spread = stats->max.i - stats->min.i;
  EXPECT_LT(spread, 2556 / 2);  // less than half the full range
}

}  // namespace
}  // namespace pixels
