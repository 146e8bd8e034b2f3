// Full-pipeline integration tests: the PixelsDB flow of the paper's demo
// (§4) — generate data, translate an NL question, submit at a service
// level, execute (with and without CF pushdown), and check status,
// result, and bill.
#include <gtest/gtest.h>

#include "exec/executor.h"
#include "nl2sql/codes_service.h"
#include "server/query_server.h"
#include "storage/memory_store.h"
#include "storage/object_store.h"
#include "workload/loggen.h"
#include "workload/tpch.h"

namespace pixels {
namespace {

class EndToEndTest : public ::testing::Test {
 protected:
  void SetUp() override {
    storage_ = std::make_shared<MemoryStore>();
    catalog_ = std::make_shared<Catalog>(storage_);

    TpchOptions topt;
    topt.scale_factor = 0.001;
    topt.rows_per_file = 2000;
    ASSERT_TRUE(GenerateTpch(catalog_.get(), "tpch", topt).ok());
    LogGenOptions lopt;
    lopt.num_rows = 3000;
    ASSERT_TRUE(GenerateWebLogs(catalog_.get(), "logs", lopt).ok());

    CoordinatorParams cparams;
    cparams.vm.initial_vms = 1;
    cparams.vm.slots_per_vm = 2;
    cparams.vm.high_watermark = 2.0;
    cparams.vm.low_watermark = 0.75;
    cparams.vm.monitor_interval = 5 * kSeconds;
    coordinator_ = std::make_unique<Coordinator>(&clock_, &rng_, cparams,
                                                 catalog_);
    QueryServerParams sparams;
    sparams.poll_interval = 1 * kSeconds;
    server_ = std::make_unique<QueryServer>(&clock_, coordinator_.get(),
                                            sparams);
    codes_ = std::make_unique<CodesService>(catalog_.get());
    for (const auto& [w, t] : TpchSynonyms()) codes_->AddSynonym(w, t);
    for (const auto& [w, t] : LogSynonyms()) codes_->AddSynonym(w, t);
  }

  void TearDown() override {
    server_->Stop();
    coordinator_->Stop();
  }

  SimClock clock_;
  Random rng_{42};
  std::shared_ptr<MemoryStore> storage_;
  std::shared_ptr<Catalog> catalog_;
  std::unique_ptr<Coordinator> coordinator_;
  std::unique_ptr<QueryServer> server_;
  std::unique_ptr<CodesService> codes_;
};

TEST_F(EndToEndTest, NlQuestionToBilledResult) {
  // 1. The user types a question; Pixels-Rover sends it to CodeS.
  Json request = Json::Object();
  request.Set("question", "how many orders are there?");
  request.Set("database", "tpch");
  Json response = codes_->HandleRequest(request);
  ASSERT_TRUE(response.Has("sql")) << response.Dump();

  // 2. The translated SQL is submitted at the relaxed level.
  Submission submission;
  submission.level = ServiceLevel::kRelaxed;
  submission.query.sql = response.Get("sql").AsString();
  submission.query.db = "tpch";
  submission.query.execute_real = true;
  TablePtr result;
  double bill = -1;
  int64_t id = server_->Submit(
      submission, [&](const SubmissionRecord& srec, const QueryRecord& qrec) {
        result = qrec.result;
        bill = srec.bill_usd;
      });
  clock_.RunUntil(5 * kMinutes);

  // 3. Status, result, and statistics are available (§4.3).
  auto status = server_->GetStatus(id);
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status->state, QueryState::kFinished);
  ASSERT_NE(result, nullptr);
  ASSERT_EQ(result->num_rows(), 1u);
  EXPECT_EQ(result->CollectColumn("count(*)")[0].i, 1500);
  EXPECT_GT(bill, 0);
  EXPECT_GE(status->execution_ms, 0);
}

TEST_F(EndToEndTest, TpchQueriesThroughAllServiceLevels) {
  struct Pending {
    int64_t id;
    ServiceLevel level;
  };
  std::vector<Pending> submitted;
  ServiceLevel levels[] = {ServiceLevel::kImmediate, ServiceLevel::kRelaxed,
                           ServiceLevel::kBestEffort};
  int i = 0;
  for (const auto& q : TpchQuerySet()) {
    Submission s;
    s.level = levels[i++ % 3];
    s.query.sql = q.sql;
    s.query.db = "tpch";
    s.query.execute_real = true;
    submitted.push_back({server_->Submit(s), s.level});
  }
  clock_.RunUntil(60 * kMinutes);
  for (const auto& p : submitted) {
    auto status = server_->GetStatus(p.id);
    ASSERT_TRUE(status.ok());
    EXPECT_EQ(status->state, QueryState::kFinished)
        << "level " << ServiceLevelName(p.level) << ": " << status->error;
  }
  EXPECT_GT(server_->TotalBilledUsd(), 0);
}

TEST_F(EndToEndTest, CfPushdownUnderLoadProducesCorrectResults) {
  // Serve the data behind a PUT-counting object store so the workers'
  // intermediate views can be seen going in (the same cluster shape as
  // the fixture's).
  ASSERT_TRUE(catalog_->SaveToStorage("meta/catalog.json").ok());
  auto object_store = std::make_shared<ObjectStore>(storage_);
  auto catalog = std::make_shared<Catalog>(object_store);
  ASSERT_TRUE(catalog->LoadFromStorage("meta/catalog.json").ok());
  CoordinatorParams cparams;
  cparams.vm.initial_vms = 1;
  cparams.vm.slots_per_vm = 2;
  cparams.vm.high_watermark = 2.0;
  cparams.vm.low_watermark = 0.75;
  cparams.vm.monitor_interval = 5 * kSeconds;
  Coordinator coordinator(&clock_, &rng_, cparams, catalog);
  QueryServerParams sparams;
  sparams.poll_interval = 1 * kSeconds;
  QueryServer server(&clock_, &coordinator, sparams);

  // Saturate the VM cluster with synthetic work.
  for (int i = 0; i < 2; ++i) {
    Submission filler;
    filler.level = ServiceLevel::kImmediate;
    filler.query.work_vcpu_seconds = 500.0;
    server.Submit(filler);
  }
  // An immediate TPC-H aggregation must run via CF pushdown now.
  Submission s;
  s.level = ServiceLevel::kImmediate;
  s.query.sql =
      "SELECT l_returnflag, count(*) AS n FROM lineitem GROUP BY "
      "l_returnflag ORDER BY l_returnflag";
  s.query.db = "tpch";
  s.query.execute_real = true;
  TablePtr result;
  bool used_cf = false;
  const uint64_t puts_before = object_store->stats().put_requests;
  server.Submit(s, [&](const SubmissionRecord&, const QueryRecord& qrec) {
    result = qrec.result;
    used_cf = qrec.used_cf;
  });
  clock_.RunUntil(10 * kMinutes);
  ASSERT_NE(result, nullptr);
  EXPECT_TRUE(used_cf);
  // Compare against direct execution.
  ExecContext ctx;
  ctx.catalog = catalog_.get();
  auto direct = ExecuteQuery(s.query.sql, "tpch", &ctx);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(result->num_rows(), (*direct)->num_rows());
  auto got = result->CollectColumn("n");
  auto want = (*direct)->CollectColumn("n");
  ASSERT_EQ(got.size(), want.size());
  for (size_t k = 0; k < got.size(); ++k) {
    EXPECT_EQ(got[k].i, want[k].i);
  }
  // Intermediate views went through object storage (paper: S3), and the
  // query's sweep removed them when it returned.
  EXPECT_GT(object_store->stats().put_requests, puts_before);
  auto views = storage_->List("intermediate/");
  ASSERT_TRUE(views.ok());
  EXPECT_TRUE(views->empty());
  server.Stop();
  coordinator.Stop();
}

TEST_F(EndToEndTest, LogAnalyticsNlFlow) {
  auto t = codes_->Translate("logs", "how many weblogs have status at least 400?");
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  Submission s;
  s.level = ServiceLevel::kBestEffort;
  s.query.sql = t->sql;
  s.query.db = "logs";
  s.query.execute_real = true;
  TablePtr result;
  server_->Submit(s, [&](const SubmissionRecord&, const QueryRecord& qrec) {
    result = qrec.result;
  });
  clock_.RunUntil(5 * kMinutes);
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(result->num_rows(), 1u);
  EXPECT_GT(result->CollectColumn("count(*)")[0].i, 0);
}

// The MV acceptance criterion: a repeated identical Immediate query is
// answered from the MV store with ZERO object-store GETs and a strictly
// lower (discounted) bill; a data write invalidates the entry and the
// next run re-bills exactly the original amount.
TEST_F(EndToEndTest, MvReuseRepeatHasZeroGetsAndDiscountedBill) {
  // Re-mount the generated data behind a GET-counting object store and
  // bring up a coordinator with the MV store enabled. The chunk cache is
  // off so any re-read would show up as GETs.
  ASSERT_TRUE(catalog_->SaveToStorage("meta/catalog.json").ok());
  auto object_store = std::make_shared<ObjectStore>(storage_);
  auto catalog = std::make_shared<Catalog>(object_store);
  ASSERT_TRUE(catalog->LoadFromStorage("meta/catalog.json").ok());

  CoordinatorParams cparams;
  cparams.vm.initial_vms = 1;
  cparams.vm.slots_per_vm = 2;
  cparams.vm.monitor_interval = 5 * kSeconds;
  cparams.chunk_cache_bytes = 0;
  cparams.mv_store_bytes = 256ULL << 20;
  Coordinator coordinator(&clock_, &rng_, cparams, catalog);
  QueryServerParams sparams;
  QueryServer server(&clock_, &coordinator, sparams);

  struct RunResult {
    double bill = -1;
    bool mv_hit = false;
    uint64_t saved = 0;
    uint64_t gets = 0;
    TablePtr result;
  };
  auto run = [&] {
    Submission s;
    s.level = ServiceLevel::kImmediate;
    s.query.sql =
        "SELECT l_returnflag, count(*) AS n FROM lineitem GROUP BY "
        "l_returnflag ORDER BY l_returnflag";
    s.query.db = "tpch";
    s.query.execute_real = true;
    RunResult r;
    const uint64_t gets_before = object_store->stats().get_requests;
    server.Submit(s, [&r](const SubmissionRecord& srec,
                          const QueryRecord& qrec) {
      r.bill = srec.bill_usd;
      r.mv_hit = srec.mv_hit;
      r.saved = srec.mv_saved_bytes;
      r.result = qrec.result;
    });
    clock_.RunUntil(clock_.Now() + 5 * kMinutes);
    r.gets = object_store->stats().get_requests - gets_before;
    return r;
  };

  auto first = run();
  ASSERT_NE(first.result, nullptr);
  EXPECT_FALSE(first.mv_hit);
  EXPECT_GT(first.gets, 0u);
  ASSERT_GT(first.bill, 0);

  auto second = run();
  ASSERT_NE(second.result, nullptr);
  EXPECT_TRUE(second.mv_hit);
  EXPECT_EQ(second.gets, 0u);  // planning touches only catalog metadata
  EXPECT_GT(second.saved, 0u);
  EXPECT_LT(second.bill, first.bill);
  EXPECT_NEAR(second.bill / first.bill, sparams.mv_reuse_bill_fraction,
              1e-9);
  // Same answer, byte for byte.
  ASSERT_EQ(second.result->num_rows(), first.result->num_rows());
  auto want = first.result->CollectColumn("n");
  auto got = second.result->CollectColumn("n");
  for (size_t i = 0; i < want.size(); ++i) EXPECT_EQ(got[i].i, want[i].i);

  // Invalidate via a file-list swap that keeps the data identical (the
  // compaction code path, minus the rewrite): the version epoch bumps,
  // the entry dies, and the third run re-bills exactly the seed amount.
  auto table = catalog->GetTable("tpch", "lineitem");
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE(
      catalog->ReplaceTableFiles("tpch", "lineitem", (*table)->files).ok());

  auto third = run();
  EXPECT_FALSE(third.mv_hit);
  EXPECT_GT(third.gets, 0u);
  EXPECT_NEAR(third.bill, first.bill, 1e-12);

  auto mv_stats = coordinator.mv_store()->stats();
  EXPECT_GE(mv_stats.hits, 1u);
  EXPECT_GE(mv_stats.invalidations, 1u);
  server.Stop();
  coordinator.Stop();
}

TEST_F(EndToEndTest, BillsReflectServiceLevelDiscounts) {
  // The same query at three levels: relaxed pays 20%, best-effort 10%.
  double bills[3] = {-1, -1, -1};
  ServiceLevel levels[] = {ServiceLevel::kImmediate, ServiceLevel::kRelaxed,
                           ServiceLevel::kBestEffort};
  for (int i = 0; i < 3; ++i) {
    Submission s;
    s.level = levels[i];
    s.query.sql = "SELECT count(*) FROM lineitem";
    s.query.db = "tpch";
    s.query.execute_real = true;
    server_->Submit(s, [&bills, i](const SubmissionRecord& srec,
                                   const QueryRecord&) {
      bills[i] = srec.bill_usd;
    });
    clock_.RunUntil(clock_.Now() + 5 * kMinutes);
  }
  ASSERT_GT(bills[0], 0);
  EXPECT_NEAR(bills[1] / bills[0], 0.2, 1e-9);
  EXPECT_NEAR(bills[2] / bills[0], 0.1, 1e-9);
}

}  // namespace
}  // namespace pixels
