// CF-fleet robustness: failed workers are re-invoked with backoff; a
// partition that exhausts its budget degrades to the VM path (or fails
// the query when fallback is off); permanent errors fail immediately.
#include <gtest/gtest.h>

#include "common/event_log.h"
#include "exec/executor.h"
#include "plan/binder.h"
#include "plan/optimizer.h"
#include "storage/fault_injection.h"
#include "storage/memory_store.h"
#include "storage/object_store.h"
#include "testing/switchable_storage.h"
#include "testing/test_db.h"
#include "turbo/cf_worker.h"
#include "turbo/coordinator.h"
#include "workload/tpch.h"

namespace pixels {
namespace {

using pixels::testing::SwitchableStorage;

class CfRetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Data lives in `mem_`; the catalog reads through `switchable_`, which
    // starts healthy (registration never trips fault budgets).
    mem_ = std::make_shared<MemoryStore>();
    switchable_ = std::make_shared<SwitchableStorage>(mem_);
    catalog_ = std::make_shared<Catalog>(switchable_);
    TpchOptions topt;
    topt.scale_factor = 0.002;
    topt.rows_per_file = 2000;  // several lineitem files -> real fleet
    ASSERT_TRUE(GenerateTpch(catalog_.get(), "tpch", topt).ok());
  }

  /// Switches all subsequent catalog reads to fault-injected storage.
  void InjectFaults(FaultInjectionParams params) {
    injector_ =
        std::make_shared<FaultInjectingStorage>(mem_, std::move(params));
    switchable_->SetTarget(injector_);
  }

  PlanPtr Plan(const std::string& sql) {
    auto plan = PlanQuery(sql, *catalog_, "tpch");
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    auto optimized = Optimize(std::move(plan).ValueOrDie(), *catalog_);
    EXPECT_TRUE(optimized.ok());
    return optimized.ok() ? *optimized : nullptr;
  }

  static std::vector<std::string> Rows(const Table& t) {
    std::vector<std::string> out;
    for (const auto& b : t.batches()) {
      for (size_t r = 0; r < b->num_rows(); ++r)
        out.push_back(b->RowToString(r));
    }
    return out;
  }

  /// Serial fleet (deterministic worker order) over the lineitem scan.
  CfWorkerOptions FleetOptions() {
    CfWorkerOptions options;
    options.num_workers = 4;
    options.fleet_parallelism = 1;
    return options;
  }

  /// The serial fleet with the shuffle DAG on: 4 producer tasks per scan
  /// stage and 4 join partitions.
  CfWorkerOptions ShuffleFleetOptions() {
    CfWorkerOptions options = FleetOptions();
    options.shuffle.enabled = true;
    options.shuffle.partitions = 4;
    options.shuffle.producer_tasks = 4;
    return options;
  }

  static FaultInjectionParams FailFirstReads(int n) {
    FaultInjectionParams params;
    FaultRule rule;
    rule.fail_first_reads = n;  // empty substring: every path
    params.rules.push_back(rule);
    return params;
  }

  const std::string sql_ =
      "SELECT l_returnflag, sum(l_extendedprice) AS rev, count(*) AS n "
      "FROM lineitem GROUP BY l_returnflag ORDER BY l_returnflag";
  const std::string join_sql_ =
      "SELECT o_orderpriority, count(*) AS n, sum(l_extendedprice) AS rev "
      "FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey "
      "GROUP BY o_orderpriority ORDER BY o_orderpriority";

  std::shared_ptr<MemoryStore> mem_;
  std::shared_ptr<SwitchableStorage> switchable_;
  std::shared_ptr<FaultInjectingStorage> injector_;
  std::shared_ptr<Catalog> catalog_;
};

TEST_F(CfRetryTest, TransientWorkerFailureIsReinvokedAndRecovers) {
  auto clean = ExecuteWithCfPushdown(Plan(sql_), catalog_.get(),
                                     FleetOptions());
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();

  // One injected failure: the first worker's first attempt dies, the
  // re-invocation succeeds, and the query never notices.
  InjectFaults(FailFirstReads(1));
  auto exec = ExecuteWithCfPushdown(Plan(sql_), catalog_.get(),
                                    FleetOptions());
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  EXPECT_EQ(exec->worker_retries, 1);
  EXPECT_EQ(exec->workers_recovered, 1);
  EXPECT_EQ(exec->workers_fallback, 0);
  EXPECT_GT(exec->retry_backoff_simulated_ms, 0.0);
  // Recovery is invisible in the results and in the billing inputs.
  EXPECT_EQ(Rows(*clean->result), Rows(*exec->result));
  EXPECT_EQ(clean->bytes_scanned, exec->bytes_scanned);
  EXPECT_EQ(clean->workers_used, exec->workers_used);
}

TEST_F(CfRetryTest, ExhaustedWorkerDegradesToVmPath) {
  auto clean = ExecuteWithCfPushdown(Plan(sql_), catalog_.get(),
                                     FleetOptions());
  ASSERT_TRUE(clean.ok());

  // Budget of 2 attempts; each failed attempt consumes one injected
  // fault, so 2 faults exhaust exactly the first worker's budget.
  InjectFaults(FailFirstReads(2));
  auto options = FleetOptions();
  options.max_worker_attempts = 2;
  auto exec = ExecuteWithCfPushdown(Plan(sql_), catalog_.get(), options);
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  EXPECT_EQ(exec->workers_fallback, 1);
  EXPECT_EQ(exec->worker_retries, 1);
  EXPECT_EQ(exec->workers_recovered, 0);
  EXPECT_GT(exec->fallback_bytes_scanned, 0u);
  EXPECT_LT(exec->fallback_bytes_scanned, exec->bytes_scanned);
  // Fallback partitions leave the fleet but not the result or the bill.
  EXPECT_EQ(exec->workers_used, clean->workers_used - 1);
  EXPECT_EQ(Rows(*clean->result), Rows(*exec->result));
  EXPECT_EQ(clean->bytes_scanned, exec->bytes_scanned);
}

TEST_F(CfRetryTest, ExhaustionFailsQueryWhenFallbackDisabled) {
  InjectFaults(FailFirstReads(100));  // beyond any retry budget
  auto options = FleetOptions();
  options.max_worker_attempts = 2;
  options.vm_fallback = false;
  auto exec = ExecuteWithCfPushdown(Plan(sql_), catalog_.get(), options);
  ASSERT_FALSE(exec.ok());
  EXPECT_TRUE(exec.status().IsIOError());
  EXPECT_NE(exec.status().message().find("injected fault"),
            std::string::npos);
}

TEST_F(CfRetryTest, PermanentErrorFailsWithoutRetry) {
  // Remove a data object: NotFound is permanent, so the fleet must not
  // burn its re-invocation budget before failing the query.
  auto files = mem_->List("");
  ASSERT_TRUE(files.ok());
  std::string victim;
  for (const auto& f : *files) {
    if (f.find("lineitem") != std::string::npos) {
      victim = f;
      break;
    }
  }
  ASSERT_FALSE(victim.empty());
  ASSERT_TRUE(mem_->Delete(victim).ok());
  InjectFaults({});  // counts ops; injects nothing
  auto options = FleetOptions();
  options.max_worker_attempts = 5;
  auto exec = ExecuteWithCfPushdown(Plan(sql_), catalog_.get(), options);
  ASSERT_FALSE(exec.ok());
  EXPECT_TRUE(exec.status().IsNotFound());
}

// Single-stage views live under the query's prefix and are swept when the
// query returns: after a success and after a permanent failure alike.
TEST_F(CfRetryTest, SingleStageViewsAreSweptOnSuccessAndFailure) {
  auto views = std::make_shared<ObjectStore>(mem_);
  auto options = FleetOptions();
  options.intermediate_store = views.get();
  options.view_prefix = "intermediate/q1";
  auto ok = ExecuteWithCfPushdown(Plan(sql_), catalog_.get(), options);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  ASSERT_GT(ok->workers_used, 1);
  EXPECT_EQ(views->stats().put_requests,
            static_cast<uint64_t>(ok->workers_used));
  EXPECT_EQ(ok->shuffle_objects_swept,
            static_cast<size_t>(ok->workers_used));
  EXPECT_TRUE(mem_->List("intermediate/")->empty());

  // Remove the last lineitem file: the serial fleet's first task writes
  // its view, then the task that scans the missing file fails with
  // NotFound, which is permanent and fails the query.
  auto files = mem_->List("");
  ASSERT_TRUE(files.ok());
  std::string victim;
  for (const auto& f : *files) {
    if (f.find("lineitem") != std::string::npos) victim = f;
  }
  ASSERT_FALSE(victim.empty());
  ASSERT_TRUE(mem_->Delete(victim).ok());
  const uint64_t puts = views->stats().put_requests;
  options.view_prefix = "intermediate/q2";
  auto failed = ExecuteWithCfPushdown(Plan(sql_), catalog_.get(), options);
  ASSERT_FALSE(failed.ok());
  EXPECT_TRUE(failed.status().IsNotFound());
  EXPECT_GT(views->stats().put_requests, puts);  // views were written...
  EXPECT_TRUE(mem_->List("intermediate/")->empty());  // ...and swept
}

// Query 1's sweep covers "intermediate/q1/" only: query 10's views and
// exchange objects stay where they are.
TEST_F(CfRetryTest, QuerySweepLeavesOtherQueriesObjects) {
  const std::vector<std::string> q10 = {"intermediate/q10/s0/t0.a1",
                                        "intermediate/q10/shuffle/s0/t0.a1"};
  for (const auto& path : q10) ASSERT_TRUE(mem_->Write(path, {1}).ok());
  for (bool shuffle : {false, true}) {
    SCOPED_TRACE(shuffle ? "shuffle" : "single-stage");
    auto options = shuffle ? ShuffleFleetOptions() : FleetOptions();
    options.intermediate_store = mem_.get();
    options.view_prefix = "intermediate/q1";
    auto exec = ExecuteWithCfPushdown(Plan(join_sql_), catalog_.get(), options);
    ASSERT_TRUE(exec.ok()) << exec.status().ToString();
    EXPECT_EQ(exec->shuffle_used, shuffle);
    EXPECT_GT(exec->shuffle_objects_swept, 0u);
    EXPECT_EQ(*mem_->List("intermediate/"), q10);
  }
}

TEST_F(CfRetryTest, CoordinatorDegradesToVmPricingOnFullFallback) {
  // Probe the fleet's partition count fault-free so the injected fault
  // budget kills every partition's single attempt, no more, no less.
  auto probe = ExecuteWithCfPushdown(Plan(sql_), catalog_.get(),
                                     FleetOptions());
  ASSERT_TRUE(probe.ok());
  const int partitions = probe->workers_used;
  ASSERT_GT(partitions, 0);

  // Every CF attempt fails; with a 1-attempt budget all partitions fall
  // back, so the query must report used_cf = false and VM pricing.
  CoordinatorParams params;
  params.vm.initial_vms = 1;
  params.vm.slots_per_vm = 1;
  params.vm.min_vms = 1;
  params.vm.max_vms = 2;
  params.vm.monitor_interval = 5 * kSeconds;
  params.default_cf_workers = 4;  // matches FleetOptions() probe
  params.cf_max_worker_attempts = 1;

  SimClock clock;
  Random rng(42);
  Coordinator coord(&clock, &rng, params, catalog_);

  // Saturate the single VM slot so the next query takes the CF path.
  QuerySpec filler;
  filler.work_vcpu_seconds = 1000.0;
  coord.Submit(filler);

  // Each injected fault unconditionally fails one read, and each failed
  // read kills one distinct single-attempt worker — so `partitions`
  // faults fail every partition exactly once and the inline VM-path
  // fallback then runs fault-free.
  InjectFaults(FailFirstReads(partitions));
  QuerySpec spec;
  spec.sql = sql_;
  spec.db = "tpch";
  spec.execute_real = true;
  spec.cf_enabled = true;
  int64_t id = coord.Submit(spec);
  clock.RunAll();

  const QueryRecord* rec = coord.GetQuery(id);
  ASSERT_EQ(rec->state, QueryState::kFinished) << rec->error;
  EXPECT_FALSE(rec->used_cf);  // degradation is visible, not papered over
  EXPECT_EQ(rec->cf_workers_used, 0);
  EXPECT_GT(rec->cf_fallback_workers, 0);
  EXPECT_GT(rec->cf_fallback_bytes, 0u);
  ASSERT_NE(rec->result, nullptr);
  EXPECT_GT(rec->result->num_rows(), 0u);
  EXPECT_GT(rec->compute_cost_usd, 0.0);
  EXPECT_EQ(coord.metrics().Counter("cf_fleet_degraded_queries"), 1.0);
}

TEST_F(CfRetryTest, ShuffleProducerExhaustedDegradesToVmPath) {
  auto clean = ExecuteWithCfPushdown(Plan(join_sql_), catalog_.get(),
                                     ShuffleFleetOptions());
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  ASSERT_TRUE(clean->shuffle_used);

  // Budget of 2 attempts; the serial fleet's first task (stage 0, task 0)
  // takes both injected faults, so exactly that producer falls back. Its
  // VM attempt runs after the wave, fault-free, and still writes the
  // exchange object the join stage reads.
  InjectFaults(FailFirstReads(2));
  auto options = ShuffleFleetOptions();
  options.max_worker_attempts = 2;
  EventLog log;
  options.event_log = &log;
  auto exec = ExecuteWithCfPushdown(Plan(join_sql_), catalog_.get(), options);
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  ASSERT_TRUE(exec->shuffle_used);
  EXPECT_EQ(exec->workers_fallback, 1);
  EXPECT_EQ(exec->worker_retries, 1);
  EXPECT_EQ(exec->workers_used, clean->workers_used - 1);
  EXPECT_GT(exec->fallback_bytes_scanned, 0u);
  EXPECT_EQ(Rows(*clean->result), Rows(*exec->result));
  EXPECT_EQ(clean->bytes_scanned, exec->bytes_scanned);

  std::string winner;
  for (const auto& e : log.OfType("shuffle.task_commit")) {
    if (e.fields.Get("stage").AsInt() == 0 &&
        e.fields.Get("task").AsInt() == 0) {
      winner = e.fields.Get("winner").AsString();
    }
  }
  EXPECT_EQ(winner, "vm-fallback");
}

TEST_F(CfRetryTest, ShuffleTaskTransientFailureRecovers) {
  auto clean = ExecuteWithCfPushdown(Plan(join_sql_), catalog_.get(),
                                     ShuffleFleetOptions());
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();

  InjectFaults(FailFirstReads(1));
  auto exec = ExecuteWithCfPushdown(Plan(join_sql_), catalog_.get(),
                                    ShuffleFleetOptions());
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  ASSERT_TRUE(exec->shuffle_used);
  EXPECT_EQ(exec->worker_retries, 1);
  EXPECT_EQ(exec->workers_recovered, 1);
  EXPECT_EQ(exec->workers_fallback, 0);
  EXPECT_GT(exec->retry_backoff_simulated_ms, 0.0);
  EXPECT_EQ(Rows(*clean->result), Rows(*exec->result));
  EXPECT_EQ(clean->bytes_scanned, exec->bytes_scanned);
  EXPECT_EQ(clean->workers_used, exec->workers_used);
}

TEST_F(CfRetryTest, SingleStageFleetEmitsStageEvents) {
  // The single-stage fleet is a one-stage DAG: it reports progress with
  // the same events as every shuffle stage.
  EventLog log;
  auto options = FleetOptions();
  options.event_log = &log;
  auto exec = ExecuteWithCfPushdown(Plan(sql_), catalog_.get(), options);
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  ASSERT_FALSE(exec->shuffle_used);
  ASSERT_GT(exec->workers_used, 1);
  EXPECT_EQ(log.CountOfType("shuffle.stage_start"), 1u);
  EXPECT_EQ(log.CountOfType("shuffle.task_commit"),
            static_cast<size_t>(exec->workers_used));
  EXPECT_EQ(log.CountOfType("shuffle.stage_done"), 1u);
}

TEST_F(CfRetryTest, CoordinatorRecordsWorkerRetries) {
  CoordinatorParams params;
  params.vm.initial_vms = 1;
  params.vm.slots_per_vm = 1;
  params.vm.min_vms = 1;
  params.vm.max_vms = 2;
  params.vm.monitor_interval = 5 * kSeconds;

  SimClock clock;
  Random rng(42);
  Coordinator coord(&clock, &rng, params, catalog_);

  QuerySpec filler;
  filler.work_vcpu_seconds = 1000.0;
  coord.Submit(filler);

  InjectFaults(FailFirstReads(1));
  QuerySpec spec;
  spec.sql = sql_;
  spec.db = "tpch";
  spec.execute_real = true;
  spec.cf_enabled = true;
  int64_t id = coord.Submit(spec);
  clock.RunAll();

  const QueryRecord* rec = coord.GetQuery(id);
  ASSERT_EQ(rec->state, QueryState::kFinished) << rec->error;
  EXPECT_TRUE(rec->used_cf);  // recovered in place, CF still did the work
  EXPECT_EQ(rec->cf_worker_retries, 1);
  EXPECT_EQ(rec->cf_fallback_workers, 0);
  EXPECT_GT(rec->bytes_scanned, 0u);
}

}  // namespace
}  // namespace pixels
