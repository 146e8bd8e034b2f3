// Error propagation through parallel scans: a mid-scan storage fault must
// surface as the query's Status (first error wins, per the ParallelFor
// contract) without crashing, leaking, or corrupting billing counters.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "exec/executor.h"
#include "storage/fault_injection.h"
#include "storage/memory_store.h"
#include "testing/switchable_storage.h"
#include "workload/tpch.h"

namespace pixels {
namespace {

using pixels::testing::SwitchableStorage;

class ScanErrorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    mem_ = std::make_shared<MemoryStore>();
    switchable_ = std::make_shared<SwitchableStorage>(mem_);
    catalog_ = std::make_shared<Catalog>(switchable_);
    TpchOptions options;
    options.scale_factor = 0.002;
    options.rows_per_file = 2500;
    options.row_group_size = 1024;  // many morsels per file
    ASSERT_TRUE(GenerateTpch(catalog_.get(), "tpch", options).ok());
  }

  void InjectFaults(FaultInjectionParams params) {
    injector_ =
        std::make_shared<FaultInjectingStorage>(mem_, std::move(params));
    switchable_->SetTarget(injector_);
  }
  void HealFaults() { switchable_->SetTarget(mem_); }

  Result<TablePtr> Run(const std::string& sql, int parallelism,
                       ExecContext* ctx_out = nullptr) {
    ExecContext ctx;
    ctx.catalog = catalog_.get();
    ctx.parallelism = parallelism;
    auto r = ExecuteQuery(sql, "tpch", &ctx);
    if (ctx_out != nullptr) {
      ctx_out->bytes_scanned = ctx.bytes_scanned.load();
      ctx_out->rows_scanned = ctx.rows_scanned.load();
    }
    return r;
  }

  static std::vector<std::string> SortedRows(const Table& t) {
    std::vector<std::string> rows;
    for (const auto& b : t.batches()) {
      for (size_t r = 0; r < b->num_rows(); ++r)
        rows.push_back(b->RowToString(r));
    }
    std::sort(rows.begin(), rows.end());
    return rows;
  }

  const std::string sql_ =
      "SELECT l_returnflag, sum(l_extendedprice) AS rev, count(*) AS n "
      "FROM lineitem GROUP BY l_returnflag";

  std::shared_ptr<MemoryStore> mem_;
  std::shared_ptr<SwitchableStorage> switchable_;
  std::shared_ptr<FaultInjectingStorage> injector_;
  std::shared_ptr<Catalog> catalog_;
};

TEST_F(ScanErrorTest, ParallelForSurfacesFirstErrorAndSkipsRest) {
  ThreadPool pool(4);
  std::atomic<int> executed{0};
  // Every other body waits until body 3 is about to fail, and the later
  // ones then take a millisecond each, so no runner can drain the range
  // while the one holding chunk 3 is descheduled. The first four chunks go
  // to four distinct runners (each blocks on its chunk), so chunk 3 is
  // always claimed and the wait always ends.
  std::atomic<bool> failing{false};
  Status st = pool.ParallelFor(
      0, 100, 1,
      [&](size_t i) -> Status {
        executed.fetch_add(1);
        if (i == 3) {
          failing.store(true);
          return Status::IOError("chunk " + std::to_string(i));
        }
        while (!failing.load()) std::this_thread::yield();
        if (i > 3) std::this_thread::sleep_for(std::chrono::milliseconds(1));
        return Status::OK();
      },
      4);
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsIOError());
  // First error wins and remaining chunks are skipped: strictly fewer
  // than all 100 bodies ran.
  EXPECT_LT(executed.load(), 100);

  // An all-OK run afterwards works on the same pool: no poisoned state.
  executed = 0;
  ASSERT_TRUE(pool.ParallelFor(0, 100, 1,
                               [&](size_t) -> Status {
                                 executed.fetch_add(1);
                                 return Status::OK();
                               },
                               4)
                  .ok());
  EXPECT_EQ(executed.load(), 100);
}

TEST_F(ScanErrorTest, MidScanFaultFailsParallelQueryWithoutCrash) {
  // One injected failure somewhere in the parallel scan: the query fails
  // with that IOError (never a wrong result), and the engine survives.
  InjectFaults([] {
    FaultInjectionParams p;
    FaultRule rule;
    rule.fail_first_reads = 1;
    p.rules.push_back(rule);
    return p;
  }());
  auto r = Run(sql_, 4);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsIOError());
  EXPECT_NE(r.status().message().find("injected fault"), std::string::npos);
  // The single fault is consumed; the very next run succeeds.
  auto retry = Run(sql_, 4);
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
}

TEST_F(ScanErrorTest, RepeatedParallelFailuresNeverCorruptCounters) {
  ExecContext clean_ctx;
  auto clean = Run(sql_, 1, &clean_ctx);
  ASSERT_TRUE(clean.ok());
  const uint64_t clean_bytes = clean_ctx.bytes_scanned.load();

  InjectFaults([] {
    FaultInjectionParams p;
    p.read_error_rate = 0.5;
    return p;
  }());
  int failures = 0, successes = 0;
  for (int i = 0; i < 20; ++i) {
    ExecContext ctx;
    auto r = Run(sql_, 4, &ctx);
    if (r.ok()) {
      ++successes;
      EXPECT_EQ(SortedRows(**r), SortedRows(**clean));
      // A successful run bills exactly the fault-free bytes.
      EXPECT_EQ(ctx.bytes_scanned.load(), clean_bytes);
    } else {
      ++failures;
      EXPECT_TRUE(r.status().IsIOError());
      // A failed run can only have scanned a subset of the table.
      EXPECT_LE(ctx.bytes_scanned.load(), clean_bytes);
    }
  }
  EXPECT_GT(failures, 0);  // the 50% rate must have tripped something

  // After healing, results and billing are exactly the baseline again.
  HealFaults();
  ExecContext healed_ctx;
  auto healed = Run(sql_, 4, &healed_ctx);
  ASSERT_TRUE(healed.ok());
  EXPECT_EQ(SortedRows(**healed), SortedRows(**clean));
  EXPECT_EQ(healed_ctx.bytes_scanned.load(), clean_bytes);
}

TEST_F(ScanErrorTest, FailedQueryLeavesEngineReusableAcrossParallelism) {
  InjectFaults([] {
    FaultInjectionParams p;
    FaultRule rule;
    rule.fail_first_reads = 2;
    p.rules.push_back(rule);
    return p;
  }());
  EXPECT_FALSE(Run(sql_, 1).ok());  // serial path surfaces the error too
  EXPECT_FALSE(Run(sql_, 8).ok());
  auto ok = Run(sql_, 8);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_GT((*ok)->num_rows(), 0u);
}

}  // namespace
}  // namespace pixels
