// Stage-scheduler behavior: deterministic hedging against injected
// stragglers, first-writer-wins billing identity across serial /
// parallel / hedged runs, GC of intermediates, and the coordinator-level
// shuffle metrics export.
#include "turbo/shuffle/stage_scheduler.h"

#include <gtest/gtest.h>

#include <set>
#include <utility>

#include "cloud/metrics.h"
#include "common/event_log.h"
#include "exec/executor.h"
#include "plan/binder.h"
#include "plan/optimizer.h"
#include "storage/fault_injection.h"
#include "storage/memory_store.h"
#include "storage/object_store.h"
#include "testing/test_db.h"
#include "turbo/cf_worker.h"
#include "turbo/coordinator.h"
#include "workload/tpch.h"

namespace pixels {
namespace {

class ShuffleSchedulerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    storage_ = std::make_shared<MemoryStore>();
    catalog_ = std::make_shared<Catalog>(storage_);
    TpchOptions topt;
    topt.scale_factor = 0.002;
    topt.rows_per_file = 2000;  // several files -> real producer fan-out
    ASSERT_TRUE(GenerateTpch(catalog_.get(), "tpch", topt).ok());
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

  /// Shuffle-enabled options; runtime filters off so bytes_scanned is
  /// comparable across topologies.
  CfWorkerOptions ShuffleFleet() {
    CfWorkerOptions options;
    options.num_workers = 4;
    options.runtime_filters = false;
    options.shuffle.enabled = true;
    options.shuffle.partitions = 4;
    options.shuffle.producer_tasks = 4;
    return options;
  }

  const std::string sql_ =
      "SELECT o_orderpriority, count(*) AS n, sum(l_extendedprice) AS rev "
      "FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey "
      "GROUP BY o_orderpriority ORDER BY o_orderpriority";

  std::shared_ptr<MemoryStore> storage_;
  std::shared_ptr<Catalog> catalog_;
};

// The pinned invariant of the subsystem: results, scanned bytes, and the
// billing inputs are byte-identical across a serial fleet, a parallel
// fleet, a hedged run with an injected straggler, and a hedging-off run
// with the same straggler.
TEST_F(ShuffleSchedulerTest, SerialParallelHedgedRunsAreByteIdentical) {
  auto run = [&](int fleet_par, bool hedging, double slow_ms) {
    auto options = ShuffleFleet();
    options.fleet_parallelism = fleet_par;
    options.shuffle.hedging = hedging;
    if (slow_ms > 0) {
      // Slow every attempt of stage-0 task-0 (primaries AND retries,
      // substring matches ".a1", ".a2", ...) but never the ".h" hedge.
      options.shuffle.path_slow_ms = [slow_ms](const std::string& path) {
        return path.find("s0/t0.a") != std::string::npos ? slow_ms : 0.0;
      };
    }
    auto exec = ExecuteWithCfPushdown(Plan(sql_), catalog_.get(), options);
    EXPECT_TRUE(exec.ok()) << exec.status().ToString();
    EXPECT_TRUE(exec->shuffle_used);
    return std::move(*exec);
  };

  const CfExecution serial = run(/*fleet_par=*/1, /*hedging=*/true, 0);
  const CfExecution parallel = run(/*fleet_par=*/0, /*hedging=*/true, 0);
  const CfExecution hedged = run(/*fleet_par=*/0, /*hedging=*/true, 60000.0);
  const CfExecution unhedged = run(/*fleet_par=*/0, /*hedging=*/false, 60000.0);

  const auto baseline = Rows(*serial.result);
  EXPECT_EQ(baseline, Rows(*parallel.result));
  EXPECT_EQ(baseline, Rows(*hedged.result));
  EXPECT_EQ(baseline, Rows(*unhedged.result));

  EXPECT_EQ(serial.bytes_scanned, parallel.bytes_scanned);
  EXPECT_EQ(serial.bytes_scanned, hedged.bytes_scanned);
  EXPECT_EQ(serial.bytes_scanned, unhedged.bytes_scanned);
  // Billing inputs beyond bytes: the committed task count is constant
  // (hedge winners REPLACE their primaries).
  EXPECT_EQ(serial.workers_used, hedged.workers_used);
  EXPECT_EQ(serial.work_vcpu_seconds, hedged.work_vcpu_seconds);

  // No straggler -> no hedge fires (all durations are near-uniform).
  EXPECT_EQ(serial.hedges_fired, 0);
  EXPECT_EQ(parallel.hedges_fired, 0);
  // The injected straggler fires exactly one hedge, and the hedge (which
  // dodges the slow rule) wins the commit race.
  EXPECT_EQ(hedged.hedges_fired, 1);
  EXPECT_EQ(hedged.hedges_won, 1);
  EXPECT_EQ(unhedged.hedges_fired, 0);
  // Hedging recovered simulated makespan: the hedged run's critical path
  // is far below the unhedged run's (which eats the full 60 s slow).
  EXPECT_LT(hedged.shuffle_critical_path_ms,
            unhedged.shuffle_critical_path_ms / 2);
}

// Re-running the identical hedged configuration yields identical hedge
// counters and critical path — the simulated-time race is a pure
// function of the claims, not of thread arrival order.
TEST_F(ShuffleSchedulerTest, HedgedRunIsDeterministicAcrossRepeats) {
  auto run = [&]() {
    auto options = ShuffleFleet();
    // Straggle one consumer (stage-J) task: hedging covers read-side
    // stages too, not just producers.
    options.shuffle.path_slow_ms = [](const std::string& path) {
      return path.find("s2/t1.a") != std::string::npos ? 45000.0 : 0.0;
    };
    auto exec = ExecuteWithCfPushdown(Plan(sql_), catalog_.get(), options);
    EXPECT_TRUE(exec.ok()) << exec.status().ToString();
    return std::move(*exec);
  };
  const CfExecution a = run();
  const CfExecution b = run();
  EXPECT_EQ(Rows(*a.result), Rows(*b.result));
  EXPECT_EQ(a.hedges_fired, b.hedges_fired);
  EXPECT_EQ(a.hedges_won, b.hedges_won);
  EXPECT_EQ(a.bytes_scanned, b.bytes_scanned);
  EXPECT_DOUBLE_EQ(a.shuffle_critical_path_ms, b.shuffle_critical_path_ms);
  ASSERT_EQ(a.shuffle_stage_wall_ms.size(), b.shuffle_stage_wall_ms.size());
  for (size_t i = 0; i < a.shuffle_stage_wall_ms.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.shuffle_stage_wall_ms[i], b.shuffle_stage_wall_ms[i]);
  }
  EXPECT_GE(a.hedges_fired, 1);
}

// Exchange traffic is intermediate traffic: it moves through the object
// store but never inflates the scanned bytes the query bills.
TEST_F(ShuffleSchedulerTest, ExchangeBytesAreSeparateFromScanBytes) {
  auto options = ShuffleFleet();
  options.runtime_filters = true;  // default config this time
  auto exec = ExecuteWithCfPushdown(Plan(sql_), catalog_.get(), options);
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  ASSERT_TRUE(exec->shuffle_used);

  CfWorkerOptions single;
  single.num_workers = 4;
  auto base = ExecuteWithCfPushdown(Plan(sql_), catalog_.get(), single);
  ASSERT_TRUE(base.ok());

  EXPECT_GT(exec->shuffle_bytes_written, 0u);
  // Consumers combined-read every data chunk but not the footers, so
  // reads land just under writes — never above, never zero.
  EXPECT_GT(exec->shuffle_bytes_read, 0u);
  EXPECT_LE(exec->shuffle_bytes_read, exec->shuffle_bytes_written);
  EXPECT_EQ(Rows(*base->result), Rows(*exec->result));
}

// Success path: the end-of-query sweep removes every exchange object and
// reports how many it removed.
TEST_F(ShuffleSchedulerTest, CompletedDagSweepsAllIntermediates) {
  auto exec = ExecuteWithCfPushdown(Plan(sql_), catalog_.get(),
                                    ShuffleFleet());
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  ASSERT_TRUE(exec->shuffle_used);
  EXPECT_GT(exec->shuffle_objects_swept, 0u);
  auto leftovers = storage_->List("intermediate/view/");
  ASSERT_TRUE(leftovers.ok());
  EXPECT_TRUE(leftovers->empty());
}

// Failure path: producers write their exchange objects, then every
// consumer read dies; the query fails, but the failure-path sweep still
// removes every intermediate (no leaked objects, ever).
TEST_F(ShuffleSchedulerTest, FailedDagLeavesNoIntermediates) {
  auto inter_mem = std::make_shared<MemoryStore>();
  FaultInjectionParams fparams;
  FaultRule rule;
  rule.path_substring = "exchange/";  // every exchange READ fails...
  rule.fail_first_reads = 1000000;    // ...well past any retry budget
  fparams.rules.push_back(rule);
  FaultInjectingStorage inter(inter_mem, fparams);

  auto options = ShuffleFleet();
  options.intermediate_store = &inter;  // exchange objects land here
  options.view_prefix = "exchange/view";
  options.vm_fallback = false;
  options.max_worker_attempts = 1;
  auto exec = ExecuteWithCfPushdown(Plan(sql_), catalog_.get(), options);
  ASSERT_FALSE(exec.ok());  // consumer reads were unrecoverable

  // The producers DID write objects (writes were never failed), so the
  // sweep had real work — and left nothing behind.
  EXPECT_GT(inter.stats().injected_read_errors, 0u);
  EXPECT_GT(inter.stats().write_ops, 0u);
  auto leftovers = inter_mem->List("exchange/view/");
  ASSERT_TRUE(leftovers.ok());
  EXPECT_TRUE(leftovers->empty());
}

// Coordinator integration: cf_shuffle routes an eligible CF query
// through the DAG, wires FaultInjectingStorage slow rules into the
// straggler model, and exports the per-stage metrics.
// Stage progress in the audit event log: one stage_start/stage_done pair
// per stage, and exactly ONE task_commit per (stage, task) slot no matter
// how many attempts raced for it (first-writer-wins emits only from the
// post-barrier resolution loop).
TEST_F(ShuffleSchedulerTest, EventLogRecordsExactlyOneCommitPerTaskSlot) {
  auto run = [&](double slow_ms, EventLog* log) {
    auto options = ShuffleFleet();
    options.fleet_parallelism = 0;  // parallel fleet: attempts really race
    options.event_log = log;
    if (slow_ms > 0) {
      options.shuffle.path_slow_ms = [slow_ms](const std::string& path) {
        return path.find("s0/t0.a") != std::string::npos ? slow_ms : 0.0;
      };
    }
    auto exec = ExecuteWithCfPushdown(Plan(sql_), catalog_.get(), options);
    EXPECT_TRUE(exec.ok()) << exec.status().ToString();
    EXPECT_TRUE(exec->shuffle_used);
    return std::move(*exec);
  };

  // Hedged run with a forced straggler: the hedge wins task s0/t0, so two
  // physical attempts finished for that slot.
  EventLog log;
  const CfExecution exec = run(/*slow_ms=*/60000.0, &log);
  ASSERT_EQ(exec.hedges_won, 1);

  const auto starts = log.OfType("shuffle.stage_start");
  EXPECT_EQ(starts.size(), static_cast<size_t>(exec.shuffle_stages));
  EXPECT_EQ(log.CountOfType("shuffle.stage_done"),
            static_cast<size_t>(exec.shuffle_stages));
  size_t total_slots = 0;
  for (const auto& e : starts) {
    total_slots += static_cast<size_t>(e.fields.Get("tasks").AsInt());
  }

  const auto commits = log.OfType("shuffle.task_commit");
  // One commit per committed task slot — the racing hedge loser never
  // produced a second event.
  EXPECT_EQ(commits.size(), total_slots);
  std::set<std::pair<int64_t, int64_t>> slots;
  size_t hedge_wins = 0;
  for (const auto& e : commits) {
    const auto slot = std::make_pair(e.fields.Get("stage").AsInt(),
                                     e.fields.Get("task").AsInt());
    EXPECT_TRUE(slots.insert(slot).second)
        << "duplicate commit for stage " << slot.first << " task "
        << slot.second;
    if (e.fields.Get("winner").AsString() == "hedge") hedge_wins++;
  }
  EXPECT_EQ(hedge_wins, 1u);

  // Identical runs export byte-identical logs (emissions only happen at
  // deterministic points despite the parallel fleet).
  EventLog log2;
  run(/*slow_ms=*/60000.0, &log2);
  EXPECT_EQ(log.ToJsonLines(), log2.ToJsonLines());
}

TEST(ShuffleCoordinatorTest, ShuffleMetricsReachPrometheusExport) {
  auto mem = std::make_shared<MemoryStore>();
  FaultInjectionParams fparams;
  FaultRule rule;
  rule.path_substring = "/shuffle/s0/t0.a";  // straggle one producer task
  rule.slow_ms = 60000.0;
  fparams.rules.push_back(rule);
  auto injector = std::make_shared<FaultInjectingStorage>(mem, fparams);
  auto store = std::make_shared<ObjectStore>(injector);
  auto catalog = std::make_shared<Catalog>(store);
  TpchOptions topt;
  topt.scale_factor = 0.002;
  topt.rows_per_file = 2000;
  ASSERT_TRUE(GenerateTpch(catalog.get(), "tpch", topt).ok());

  CoordinatorParams params;
  params.vm.initial_vms = 1;
  params.vm.slots_per_vm = 1;
  params.vm.min_vms = 1;
  params.vm.max_vms = 2;
  params.vm.monitor_interval = 5 * kSeconds;
  params.default_cf_workers = 4;
  params.cf_shuffle = true;
  params.cf_shuffle_partitions = 4;
  params.cf_shuffle_producer_tasks = 4;

  SimClock clock;
  Random rng(42);
  Coordinator coord(&clock, &rng, params, catalog);

  // Saturate the single VM slot so the join query takes the CF path.
  QuerySpec filler;
  filler.work_vcpu_seconds = 1000.0;
  coord.Submit(filler);

  QuerySpec spec;
  spec.sql =
      "SELECT o_orderpriority, count(*) AS n FROM lineitem l JOIN orders o "
      "ON l.l_orderkey = o.o_orderkey GROUP BY o_orderpriority "
      "ORDER BY o_orderpriority";
  spec.db = "tpch";
  spec.execute_real = true;
  spec.cf_enabled = true;
  int64_t id = coord.Submit(spec);
  clock.RunAll();

  const QueryRecord* rec = coord.GetQuery(id);
  ASSERT_NE(rec, nullptr);
  ASSERT_EQ(rec->state, QueryState::kFinished) << rec->error;
  EXPECT_TRUE(rec->used_shuffle);
  EXPECT_EQ(rec->shuffle_stages, 3);
  EXPECT_GT(rec->shuffle_bytes_written, 0u);
  EXPECT_GT(rec->shuffle_bytes_read, 0u);
  // The injected straggler was hedged away (the slow rule reached the
  // scheduler through the decorator-stack walk).
  EXPECT_GE(rec->cf_hedges_fired, 1);
  EXPECT_GE(rec->cf_hedges_won, 1);
  EXPECT_GT(injector->stats().injected_slow_ops, 0u);

  EXPECT_DOUBLE_EQ(coord.metrics().Counter("cf_shuffle_queries"), 1.0);
  const MetricsRegistry snap = coord.MetricsSnapshot();
  const std::string text = snap.ToPrometheusText();
  std::string error;
  EXPECT_TRUE(ValidatePrometheusText(text, &error)) << error;
  EXPECT_NE(text.find("pixels_cf_shuffle_queries"), std::string::npos);
  EXPECT_NE(text.find("pixels_cf_hedge_fired_total"), std::string::npos);
  EXPECT_NE(text.find("pixels_cf_hedge_won_total"), std::string::npos);
  EXPECT_NE(text.find("pixels_cf_stage_wall_ms"), std::string::npos);
  EXPECT_NE(text.find("pixels_cf_shuffle_bytes_written"), std::string::npos);

  // No intermediate leaked into the object store.
  auto leftovers = mem->List("intermediate/");
  ASSERT_TRUE(leftovers.ok());
  EXPECT_TRUE(leftovers->empty());
}

}  // namespace
}  // namespace pixels
