// Runtime filters end to end: bloom filters never drop a matching key,
// the hub survives concurrent publish/probe (TSan target), and a join
// query returns byte-identical results with filters on or off — while
// the on-path's skipped bytes exactly account for the billed-byte delta,
// including across the CF pushdown seam.
#include <gtest/gtest.h>

#include <thread>

#include "common/random.h"
#include "exec/bloom_filter.h"
#include "exec/executor.h"
#include "exec/kernels.h"
#include "format/writer.h"
#include "plan/binder.h"
#include "plan/optimizer.h"
#include "storage/memory_store.h"
#include "testing/reference_exec.h"
#include "turbo/cf_worker.h"

namespace pixels {
namespace {

TEST(RuntimeFilterBloomTest, NoFalseNegatives) {
  Random rng(17);
  for (int bits_per_key : {4, 8, 16}) {
    std::vector<uint64_t> hashes;
    BloomFilter bloom(1000, bits_per_key);
    for (int i = 0; i < 1000; ++i) {
      hashes.push_back(RfHashInt(rng.Uniform(-5000000000LL, 5000000000LL)));
      bloom.Add(hashes.back());
    }
    for (uint64_t h : hashes) {
      EXPECT_TRUE(bloom.MayContain(h)) << "bits_per_key=" << bits_per_key;
    }
  }
}

TEST(RuntimeFilterBloomTest, FalsePositiveRateIsReasonable) {
  Random rng(23);
  BloomFilter bloom(1000, 8);
  for (int i = 0; i < 1000; ++i) bloom.Add(RfHashInt(i));
  int fp = 0;
  constexpr int kProbes = 10000;
  for (int i = 0; i < kProbes; ++i) {
    if (bloom.MayContain(RfHashInt(1000000 + i))) ++fp;
  }
  // 8 bits/key is ~2% theoretical; allow generous slack.
  EXPECT_LT(fp, kProbes / 10);
}

TEST(RuntimeFilterBloomTest, EmptyAndZeroSizedFilters) {
  BloomFilter empty(0, 8);
  // Never crashes; any answer is legal for a filter with no keys, but the
  // published key_count=0 short-circuit means probes never rely on it.
  empty.MayContain(RfHashInt(1));
  RuntimeFilter rf(0, 8);
  EXPECT_EQ(rf.key_count, 0u);
  EXPECT_FALSE(rf.has_range);
}

// TSan target: joins publish into the hub while scans poll it.
TEST(RuntimeFilterConcurrencyTest, ConcurrentPublishAndProbe) {
  RuntimeFilterHub hub;
  constexpr int kFilters = 8;
  constexpr int kKeysPerFilter = 64;

  std::vector<std::thread> threads;
  for (int id = 0; id < kFilters; ++id) {
    threads.emplace_back([&, id] {
      auto rf = std::make_shared<RuntimeFilter>(kKeysPerFilter, 8);
      for (int k = 0; k < kKeysPerFilter; ++k) {
        rf->bloom.Add(RfHashInt(id * 1000 + k));
      }
      rf->key_count = kKeysPerFilter;
      hub.Publish(id, std::move(rf));
    });
  }
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      // Probe whatever is published so far; a published filter must be
      // fully built (the hub's mutex orders build writes before reads).
      for (int round = 0; round < 200; ++round) {
        for (int id = 0; id < kFilters; ++id) {
          RuntimeFilterPtr rf = hub.Get(id);
          if (rf == nullptr) continue;
          for (int k = 0; k < kKeysPerFilter; ++k) {
            EXPECT_TRUE(rf->bloom.MayContain(RfHashInt(id * 1000 + k)));
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int id = 0; id < kFilters; ++id) {
    ASSERT_NE(hub.Get(id), nullptr);
    EXPECT_EQ(hub.Get(id)->key_count, static_cast<uint64_t>(kKeysPerFilter));
  }
}

// ---- end-to-end join: results, billing, and the CF seam ----

// fact(k, v, tag): 2000 rows in 8 row groups of 250, k clustered so each
// row group covers a distinct k range (row group i holds k in
// [i*10, i*10+10)). dim(k, name): keys 0..9 only, so the published range
// [0, 9] prunes every fact row group but the first.
std::shared_ptr<Catalog> BuildJoinCatalog() {
  auto storage = std::make_shared<MemoryStore>();
  auto catalog = std::make_shared<Catalog>(storage);
  EXPECT_TRUE(catalog->CreateDatabase("db").ok());
  {
    FileSchema schema = {{"k", TypeId::kInt64},
                         {"v", TypeId::kInt64},
                         {"tag", TypeId::kString}};
    EXPECT_TRUE(catalog->CreateTable("db", "fact", schema).ok());
    WriterOptions options;
    options.row_group_size = 250;
    PixelsWriter writer(schema, options);
    const char* tags[] = {"red", "green", "blue"};
    for (int i = 0; i < 2000; ++i) {
      EXPECT_TRUE(writer
                      .AppendRow({Value::Int(i / 25), Value::Int(i % 97),
                                  Value::String(tags[i % 3])})
                      .ok());
    }
    EXPECT_TRUE(writer.Finish(storage.get(), "db/fact/part0.pxl").ok());
    EXPECT_TRUE(catalog->AddTableFile("db", "fact", "db/fact/part0.pxl").ok());
  }
  {
    FileSchema schema = {{"k", TypeId::kInt64}, {"name", TypeId::kString}};
    EXPECT_TRUE(catalog->CreateTable("db", "dim", schema).ok());
    PixelsWriter writer(schema);
    for (int k = 0; k < 10; ++k) {
      EXPECT_TRUE(
          writer.AppendRow({Value::Int(k), Value::String("d" + std::to_string(k))})
              .ok());
    }
    EXPECT_TRUE(writer.Finish(storage.get(), "db/dim/part0.pxl").ok());
    EXPECT_TRUE(catalog->AddTableFile("db", "dim", "db/dim/part0.pxl").ok());
  }
  return catalog;
}

std::vector<std::string> Rows(const Table& t) {
  std::vector<std::string> out;
  for (const auto& b : t.batches()) {
    for (size_t r = 0; r < b->num_rows(); ++r) out.push_back(b->RowToString(r));
  }
  return out;
}

constexpr char kJoinSql[] =
    "SELECT d.name, sum(f.v) AS s, count(*) AS c FROM fact f "
    "JOIN dim d ON f.k = d.k GROUP BY d.name ORDER BY d.name";

class RuntimeFilterJoinTest : public ::testing::Test {
 protected:
  void SetUp() override { catalog_ = BuildJoinCatalog(); }

  struct Run {
    std::vector<std::string> rows;
    uint64_t bytes = 0;
    uint64_t rf_probe_rows = 0;
    uint64_t rf_pruned_rows = 0;
    uint64_t rf_pruned_row_groups = 0;
    uint64_t rf_skipped_bytes = 0;
  };

  Run Execute(bool runtime_filters, int parallelism = 1,
              const std::string& sql = kJoinSql) {
    ExecContext ctx;
    ctx.catalog = catalog_.get();
    ctx.runtime_filters = runtime_filters;
    ctx.parallelism = parallelism;
    auto result = ExecuteQuery(sql, "db", &ctx);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    Run run;
    if (result.ok()) run.rows = Rows(**result);
    run.bytes = ctx.bytes_scanned.load();
    run.rf_probe_rows = ctx.rf_probe_rows.load();
    run.rf_pruned_rows = ctx.rf_pruned_rows.load();
    run.rf_pruned_row_groups = ctx.rf_pruned_row_groups.load();
    run.rf_skipped_bytes = ctx.rf_skipped_bytes.load();
    return run;
  }

  std::shared_ptr<Catalog> catalog_;
};

TEST_F(RuntimeFilterJoinTest, IdenticalResultsAndExactByteAudit) {
  const Run off = Execute(/*runtime_filters=*/false);
  const Run on = Execute(/*runtime_filters=*/true);

  ASSERT_FALSE(off.rows.empty());
  EXPECT_EQ(off.rows, on.rows);

  // The filter genuinely pruned: the build side holds k in [0, 9], so 7
  // of the 8 fact row groups (k >= 10) are never fetched.
  EXPECT_EQ(on.rf_pruned_row_groups, 7u);
  EXPECT_GT(on.rf_skipped_bytes, 0u);
  EXPECT_LT(on.bytes, off.bytes);

  // Exact audit: what the filters skipped is exactly the billed delta.
  EXPECT_EQ(off.bytes, on.bytes + on.rf_skipped_bytes);

  // The off-run never touched a filter.
  EXPECT_EQ(off.rf_probe_rows, 0u);
  EXPECT_EQ(off.rf_skipped_bytes, 0u);
}

TEST_F(RuntimeFilterJoinTest, SerialAndParallelRunsAreIdentical) {
  const Run serial = Execute(true, /*parallelism=*/1);
  const Run parallel = Execute(true, /*parallelism=*/4);
  EXPECT_EQ(serial.rows, parallel.rows);
  EXPECT_EQ(serial.bytes, parallel.bytes);
  EXPECT_EQ(serial.rf_probe_rows, parallel.rf_probe_rows);
  EXPECT_EQ(serial.rf_pruned_rows, parallel.rf_pruned_rows);
  EXPECT_EQ(serial.rf_pruned_row_groups, parallel.rf_pruned_row_groups);
  EXPECT_EQ(serial.rf_skipped_bytes, parallel.rf_skipped_bytes);
}

// What the zone-map rule bills for `sql`: every projected chunk of every
// row group that survives PruneRowGroups of its scan's pushed predicates,
// and every row of those row groups.
struct ScanBill {
  uint64_t bytes = 0;
  uint64_t rows = 0;
  uint64_t row_groups = 0;
  uint64_t row_groups_total = 0;
};

ScanBill ZoneMapBill(const std::string& sql, Catalog* catalog) {
  ScanBill bill;
  auto plan = PlanQuery(sql, *catalog, "db");
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  if (!plan.ok()) return bill;
  auto optimized = Optimize(std::move(plan).ValueOrDie(), *catalog);
  EXPECT_TRUE(optimized.ok()) << optimized.status().ToString();
  if (!optimized.ok()) return bill;
  std::vector<const LogicalPlan*> stack = {optimized->get()};
  while (!stack.empty()) {
    const LogicalPlan* node = stack.back();
    stack.pop_back();
    for (const auto& child : node->children) stack.push_back(child.get());
    if (node->kind != LogicalPlan::Kind::kScan) continue;
    EXPECT_FALSE(node->pushed.empty()) << sql;
    auto table = catalog->GetTable(node->db, node->table);
    EXPECT_TRUE(table.ok());
    if (!table.ok()) continue;
    for (const auto& path : (*table)->files) {
      auto reader = PixelsReader::Open(catalog->storage(), path);
      EXPECT_TRUE(reader.ok()) << reader.status().ToString();
      if (!reader.ok()) continue;
      bill.row_groups_total += (*reader)->NumRowGroups();
      for (size_t g : (*reader)->PruneRowGroups(node->pushed)) {
        auto bytes = (*reader)->RowGroupProjectedBytes(g, node->columns);
        EXPECT_TRUE(bytes.ok());
        bill.bytes += bytes.ok() ? *bytes : 0;
        bill.rows += (*reader)->RowGroupRows(g);
        ++bill.row_groups;
      }
    }
  }
  return bill;
}

TEST_F(RuntimeFilterJoinTest, FusedDecodeMatchesUnfusedWithSameBill) {
  // Pushed predicates only prune row groups: a surviving row group is
  // decoded whole, billed for every projected chunk and counted in
  // rows_scanned, and the Filter kept above the scan picks the rows.
  // pf(k, v, d, tag) spans three files of four 100-row row groups, with k
  // clustered (each row group holds four k values) so zone maps prune.
  FileSchema schema = {{"k", TypeId::kInt64},
                       {"v", TypeId::kInt64},
                       {"d", TypeId::kDouble},
                       {"tag", TypeId::kString}};
  ASSERT_TRUE(catalog_->CreateTable("db", "pf", schema).ok());
  const char* tags[] = {"red", "green", "blue"};
  for (int f = 0; f < 3; ++f) {
    WriterOptions options;
    options.row_group_size = 100;
    PixelsWriter writer(schema, options);
    for (int i = f * 400; i < (f + 1) * 400; ++i) {
      ASSERT_TRUE(writer
                      .AppendRow({Value::Int(i / 25), Value::Int(i % 97),
                                  Value::Double((i % 13) * 0.5),
                                  Value::String(tags[i % 3])})
                      .ok());
    }
    const std::string path = "db/pf/part" + std::to_string(f) + ".pxl";
    ASSERT_TRUE(writer.Finish(catalog_->storage(), path).ok());
    ASSERT_TRUE(catalog_->AddTableFile("db", "pf", path).ok());
  }

  const std::string queries[] = {
      // Prunes half the row groups; the Filter drops rows of the rest.
      "SELECT k, v, tag FROM pf WHERE k >= 10 AND k < 30 AND tag <> 'red' "
      "ORDER BY k, v, tag",
      "SELECT tag, count(*) AS c, sum(v) AS s FROM pf "
      "WHERE k > 20 AND d <= 3.0 GROUP BY tag ORDER BY tag",
      // Prunes nothing, keeps few rows.
      "SELECT count(*) AS c FROM pf WHERE v = 5",
      // Prunes everything.
      "SELECT count(*) AS c FROM pf WHERE k > 1000",
  };
  uint64_t pruned = 0;
  for (const std::string& sql : queries) {
    SCOPED_TRACE(sql);
    const ScanBill bill = ZoneMapBill(sql, catalog_.get());
    EXPECT_EQ(bill.row_groups_total, 12u);
    pruned += bill.row_groups_total - bill.row_groups;

    ExecContext ref_ctx;
    ref_ctx.catalog = catalog_.get();
    auto expected = ReferenceQuery(sql, "db", &ref_ctx);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    EXPECT_EQ(ref_ctx.bytes_scanned.load(), bill.bytes);

    for (int par : {1, 4}) {
      ExecContext ctx;
      ctx.catalog = catalog_.get();
      ctx.parallelism = par;
      auto result = ExecuteQuery(sql, "db", &ctx);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(Rows(**result), Rows(**expected)) << "parallelism " << par;
      EXPECT_EQ(ctx.bytes_scanned.load(), bill.bytes) << "parallelism " << par;
      EXPECT_EQ(ctx.rows_scanned.load(), bill.rows) << "parallelism " << par;
    }

    auto plan = PlanQuery(sql, *catalog_, "db");
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    auto optimized = Optimize(std::move(plan).ValueOrDie(), *catalog_);
    ASSERT_TRUE(optimized.ok()) << optimized.status().ToString();
    CfWorkerOptions options;
    options.num_workers = 3;
    auto cf = ExecuteWithCfPushdown(*optimized, catalog_.get(), options);
    ASSERT_TRUE(cf.ok()) << cf.status().ToString();
    EXPECT_TRUE(cf->pushdown_used);
    EXPECT_EQ(cf->workers_used, 3);
    EXPECT_EQ(Rows(*cf->result), Rows(**expected));
    EXPECT_EQ(cf->bytes_scanned, bill.bytes);
    EXPECT_EQ(cf->rows_scanned, bill.rows);
  }
  EXPECT_GT(pruned, 0u);
}

TEST_F(RuntimeFilterJoinTest, AllKnobCombinationsAgree) {
  std::vector<std::string> expected;
  for (bool rf : {false, true}) {
    for (int par : {1, 3}) {
      const Run run = Execute(rf, par);
      if (expected.empty()) expected = run.rows;
      EXPECT_EQ(run.rows, expected) << "rf=" << rf << " par=" << par;
    }
  }
}

TEST_F(RuntimeFilterJoinTest, EmptyBuildSideSkipsEveryRowGroup) {
  // No dim key matches: the published filter has key_count == 0, so the
  // probe scan drops every morsel without fetching any fact bytes.
  const std::string sql =
      "SELECT count(*) AS c FROM fact f JOIN dim d ON f.k = d.k "
      "WHERE d.name = 'nope'";
  const Run off = Execute(false, 1, sql);
  const Run on = Execute(true, 1, sql);
  EXPECT_EQ(off.rows, on.rows);
  EXPECT_EQ(on.rf_pruned_row_groups, 8u);
  EXPECT_EQ(off.bytes, on.bytes + on.rf_skipped_bytes);
}

// TSan target: parallel probe-side scans race the bloom probes and the
// rf counters while the fleet decodes morsels concurrently.
TEST_F(RuntimeFilterJoinTest, ConcurrentProbeScanUnderFilters) {
  const Run a = Execute(true, /*parallelism=*/4);
  const Run b = Execute(true, /*parallelism=*/4);
  EXPECT_EQ(a.rows, b.rows);
  EXPECT_EQ(a.bytes, b.bytes);
}

// The CF seam: the same query through ExecuteWithCfPushdown, with the
// worker fleet's scans consulting filters published in their context.
TEST_F(RuntimeFilterJoinTest, CfSeamIdenticalResultsAndByteAudit) {
  auto plan_for = [&]() {
    auto plan = PlanQuery(kJoinSql, *catalog_, "db");
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    auto optimized = Optimize(std::move(plan).ValueOrDie(), *catalog_);
    EXPECT_TRUE(optimized.ok());
    return std::move(optimized).ValueOrDie();
  };

  CfWorkerOptions off;
  off.num_workers = 4;
  off.runtime_filters = false;
  auto exec_off = ExecuteWithCfPushdown(plan_for(), catalog_.get(), off);
  ASSERT_TRUE(exec_off.ok()) << exec_off.status().ToString();

  CfWorkerOptions on;
  on.num_workers = 4;
  on.runtime_filters = true;
  auto exec_on = ExecuteWithCfPushdown(plan_for(), catalog_.get(), on);
  ASSERT_TRUE(exec_on.ok()) << exec_on.status().ToString();

  EXPECT_EQ(Rows(*exec_off->result), Rows(*exec_on->result));
  // Same exact audit across the seam: every byte the filters skipped is
  // a byte the off-run billed.
  EXPECT_EQ(exec_off->bytes_scanned,
            exec_on->bytes_scanned + exec_on->rf.skipped_bytes);
  EXPECT_EQ(exec_off->rf.skipped_bytes, 0u);

  // And the direct (no-pushdown) result agrees with both.
  ExecContext ctx;
  ctx.catalog = catalog_.get();
  auto direct = ExecuteQuery(kJoinSql, "db", &ctx);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(Rows(**direct), Rows(*exec_on->result));
}

TEST_F(RuntimeFilterJoinTest, ExplainAnalyzeReportsFilterCounters) {
  ExecContext ctx;
  ctx.catalog = catalog_.get();
  ctx.runtime_filters = true;
  auto result =
      ExecuteQuery(std::string("EXPLAIN ANALYZE ") + kJoinSql, "db", &ctx);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  std::string report;
  for (const auto& v : (*result)->CollectColumn("plan")) {
    report += v.s;
    report += "\n";
  }
  EXPECT_NE(report.find("rf_pruned_row_groups="), std::string::npos) << report;
  EXPECT_NE(report.find("rf_skipped_bytes="), std::string::npos) << report;
}

}  // namespace
}  // namespace pixels
