// Chaos soak (the tentpole invariant of the fault-injection PR): with
// seeded transient faults at 1% / 5% / 20%, every query's results,
// scanned bytes, and bill are byte-/cent-identical to the fault-free
// run — retries are invisible everywhere except the retry counters.
// With injection disabled, the retry counters are exactly zero.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <string>
#include <vector>

#include "format/footer_cache.h"
#include "server/query_server.h"
#include "storage/fault_injection.h"
#include "storage/memory_store.h"
#include "storage/object_store.h"
#include "storage/retrying_storage.h"
#include "testing/switchable_storage.h"
#include "workload/tpch.h"

namespace pixels {
namespace {

struct QueryOutcome {
  std::vector<std::string> rows;  // sorted result rows
  uint64_t bytes_scanned = 0;
  double bill_usd = 0;
  QueryState state = QueryState::kPending;
};

struct SoakOutcome {
  std::vector<QueryOutcome> queries;
  double total_billed = 0;
  uint64_t retry_attempts = 0;
  uint64_t retry_recovered = 0;
  uint64_t retry_exhausted = 0;
  double storage_retries_metric = 0;
  uint64_t injected_errors = 0;
  /// CF intermediates (views and exchange objects) still in storage after
  /// the soak (cf_shuffle is on for every run; the GC sweep must leave
  /// zero).
  size_t leaked_intermediates = 0;
};

std::vector<std::string> SortedRows(const Table& t) {
  std::vector<std::string> rows;
  for (const auto& b : t.batches()) {
    for (size_t r = 0; r < b->num_rows(); ++r)
      rows.push_back(b->RowToString(r));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// One full run of the server/coordinator/engine stack over TPC-H data
/// with the production storage stack
///   ObjectStore( RetryingStorage( [FaultInjectingStorage] MemoryStore ))
/// where faults at `fault_rate` switch on only after data generation.
SoakOutcome RunSoak(double fault_rate) {
  // Footer-cache keys include the storage pointer; clear so a recycled
  // allocation can never leak warm footers between runs.
  FooterCache::Shared()->Clear();

  auto mem = std::make_shared<MemoryStore>();
  auto switchable = std::make_shared<testing::SwitchableStorage>(mem);
  RetryPolicy policy;
  policy.max_attempts = 8;  // 0.2^8: exhaustion is effectively impossible
  auto retrying = std::make_shared<RetryingStorage>(switchable, policy);
  auto store = std::make_shared<ObjectStore>(retrying);
  auto catalog = std::make_shared<Catalog>(store);

  TpchOptions topt;
  topt.scale_factor = 0.002;
  topt.rows_per_file = 2000;
  EXPECT_TRUE(GenerateTpch(catalog.get(), "tpch", topt).ok());

  std::shared_ptr<FaultInjectingStorage> injector;
  if (fault_rate > 0) {
    FaultInjectionParams params;
    params.seed = 7;  // fixed seed: this soak is reproducible forever
    params.read_error_rate = fault_rate;
    params.latency_spike_rate = fault_rate;
    injector = std::make_shared<FaultInjectingStorage>(mem, params);
    switchable->SetTarget(injector);
  }

  SimClock clock;
  Random rng(42);
  CoordinatorParams cparams;
  cparams.vm.initial_vms = 2;
  cparams.vm.slots_per_vm = 2;
  cparams.vm.min_vms = 1;
  cparams.vm.max_vms = 4;
  cparams.vm.monitor_interval = 5 * kSeconds;
  // Shuffle on for the whole soak: any query that takes the CF path and
  // has an eligible join core runs the multi-stage DAG — under chaos —
  // and must stay byte-identical to the fault-free baseline.
  cparams.cf_shuffle = true;
  Coordinator coordinator(&clock, &rng, cparams, catalog);
  QueryServer server(&clock, &coordinator);

  const struct {
    const char* sql;
    ServiceLevel level;
  } kQueries[] = {
      {"SELECT l_returnflag, sum(l_extendedprice) AS rev, count(*) AS n "
       "FROM lineitem GROUP BY l_returnflag ORDER BY l_returnflag",
       ServiceLevel::kImmediate},
      {"SELECT o.o_orderpriority, count(*) AS n FROM orders o JOIN "
       "lineitem l ON o.o_orderkey = l.l_orderkey WHERE l.l_quantity < 25 "
       "GROUP BY o.o_orderpriority ORDER BY o.o_orderpriority",
       ServiceLevel::kImmediate},
      {"SELECT l_linestatus, sum(l_quantity) AS q FROM lineitem "
       "WHERE l_discount > 0.02 GROUP BY l_linestatus ORDER BY l_linestatus",
       ServiceLevel::kRelaxed},
  };

  SoakOutcome out;
  out.queries.resize(std::size(kQueries));
  for (size_t i = 0; i < std::size(kQueries); ++i) {
    Submission s;
    s.level = kQueries[i].level;
    s.query.sql = kQueries[i].sql;
    s.query.db = "tpch";
    s.query.execute_real = true;
    server.Submit(s, [&out, i](const SubmissionRecord& srec,
                               const QueryRecord& qrec) {
      QueryOutcome& q = out.queries[i];
      q.state = qrec.state;
      q.bytes_scanned = qrec.bytes_scanned;
      q.bill_usd = srec.bill_usd;
      if (qrec.result != nullptr) q.rows = SortedRows(*qrec.result);
    });
  }
  clock.RunAll();
  server.Stop();
  coordinator.Stop();
  clock.RunAll();

  out.total_billed = server.TotalBilledUsd();
  const ObjectStoreStats stats = store->stats();
  out.retry_attempts = stats.retry_attempts;
  out.retry_recovered = stats.retry_recovered;
  out.retry_exhausted = stats.retry_exhausted;
  out.storage_retries_metric = coordinator.metrics().Counter("storage_retries");
  if (injector != nullptr) {
    out.injected_errors = injector->stats().injected_read_errors;
  }
  // No-leak scan: no CF intermediate (worker view or exchange object)
  // survives the queries, chaos or not.
  auto left = mem->List("intermediate/");
  EXPECT_TRUE(left.ok());
  if (left.ok()) out.leaked_intermediates = left->size();
  return out;
}

void ExpectIdentical(const SoakOutcome& baseline, const SoakOutcome& chaotic,
                     double rate) {
  ASSERT_EQ(baseline.queries.size(), chaotic.queries.size());
  for (size_t i = 0; i < baseline.queries.size(); ++i) {
    SCOPED_TRACE("rate=" + std::to_string(rate) + " query=" +
                 std::to_string(i));
    EXPECT_EQ(chaotic.queries[i].state, QueryState::kFinished);
    // Byte-identical results and billing inputs...
    EXPECT_EQ(baseline.queries[i].rows, chaotic.queries[i].rows);
    EXPECT_EQ(baseline.queries[i].bytes_scanned,
              chaotic.queries[i].bytes_scanned);
    // ...and cent-identical bills (same inputs, same deterministic math).
    EXPECT_DOUBLE_EQ(baseline.queries[i].bill_usd,
                     chaotic.queries[i].bill_usd);
  }
  EXPECT_DOUBLE_EQ(baseline.total_billed, chaotic.total_billed);
  EXPECT_EQ(chaotic.leaked_intermediates, 0u);
  // Every injected fault was either recovered by a retry or never blocked
  // an op (no query failed, so nothing was exhausted).
  EXPECT_EQ(chaotic.retry_exhausted, 0u);
  EXPECT_GE(chaotic.retry_attempts, chaotic.retry_recovered);
}

TEST(ChaosSoakTest, FaultRatesNeverChangeResultsOrBills) {
  const SoakOutcome baseline = RunSoak(0.0);
  for (const auto& q : baseline.queries) {
    ASSERT_EQ(q.state, QueryState::kFinished);
    ASSERT_FALSE(q.rows.empty());
    ASSERT_GT(q.bytes_scanned, 0u);
    ASSERT_GT(q.bill_usd, 0.0);
  }
  // Injection disabled: the retry counters are exactly zero.
  EXPECT_EQ(baseline.retry_attempts, 0u);
  EXPECT_EQ(baseline.retry_recovered, 0u);
  EXPECT_EQ(baseline.retry_exhausted, 0u);
  EXPECT_DOUBLE_EQ(baseline.storage_retries_metric, 0.0);
  EXPECT_EQ(baseline.leaked_intermediates, 0u);

  for (double rate : {0.01, 0.05, 0.20}) {
    const SoakOutcome chaotic = RunSoak(rate);
    ExpectIdentical(baseline, chaotic, rate);
    if (rate == 0.20) {
      // At the highest rate the chaos was real: faults were injected and
      // absorbed by retries, visible in the coordinator's metrics.
      EXPECT_GT(chaotic.injected_errors, 0u);
      EXPECT_GT(chaotic.retry_attempts, 0u);
      EXPECT_GT(chaotic.retry_recovered, 0u);
      EXPECT_GT(chaotic.storage_retries_metric, 0.0);
    }
  }
}

// Forced-CF shuffle soak: the join query is pinned to the CF path (the
// single VM slot is saturated), cf_shuffle runs the DAG for every round,
// and seeded read faults hammer both the base-table scans and the
// exchange objects. Invariants: every round finishes with identical rows
// and bytes, and not one intermediate object outlives its query.
TEST(ChaosSoakTest, ShuffleUnderChaosNeverLeaksOrDiverges) {
  FooterCache::Shared()->Clear();
  auto mem = std::make_shared<MemoryStore>();
  auto switchable = std::make_shared<testing::SwitchableStorage>(mem);
  RetryPolicy policy;
  policy.max_attempts = 8;
  auto retrying = std::make_shared<RetryingStorage>(switchable, policy);
  auto store = std::make_shared<ObjectStore>(retrying);
  auto catalog = std::make_shared<Catalog>(store);
  TpchOptions topt;
  topt.scale_factor = 0.002;
  topt.rows_per_file = 2000;
  ASSERT_TRUE(GenerateTpch(catalog.get(), "tpch", topt).ok());

  FaultInjectionParams fparams;
  fparams.seed = 11;
  fparams.read_error_rate = 0.10;
  fparams.latency_spike_rate = 0.10;
  auto injector = std::make_shared<FaultInjectingStorage>(mem, fparams);
  switchable->SetTarget(injector);

  CoordinatorParams cparams;
  cparams.vm.initial_vms = 1;
  cparams.vm.slots_per_vm = 1;
  cparams.vm.min_vms = 1;
  cparams.vm.max_vms = 1;
  cparams.vm.monitor_interval = 5 * kSeconds;
  cparams.default_cf_workers = 4;
  cparams.cf_shuffle = true;
  cparams.cf_shuffle_partitions = 4;
  cparams.cf_shuffle_producer_tasks = 4;

  std::vector<std::string> first_rows;
  uint64_t first_bytes = 0;
  for (int round = 0; round < 3; ++round) {
    SCOPED_TRACE("round=" + std::to_string(round));
    SimClock clock;
    Random rng(42);
    Coordinator coord(&clock, &rng, cparams, catalog);
    QuerySpec filler;
    filler.work_vcpu_seconds = 1000.0;
    coord.Submit(filler);

    QuerySpec spec;
    spec.sql =
        "SELECT o_orderpriority, count(*) AS n FROM lineitem l JOIN orders "
        "o ON l.l_orderkey = o.o_orderkey GROUP BY o_orderpriority "
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
    ASSERT_NE(rec->result, nullptr);
    const auto rows = SortedRows(*rec->result);
    if (round == 0) {
      first_rows = rows;
      first_bytes = rec->bytes_scanned;
      ASSERT_FALSE(first_rows.empty());
      ASSERT_GT(first_bytes, 0u);
    } else {
      EXPECT_EQ(rows, first_rows);
      EXPECT_EQ(rec->bytes_scanned, first_bytes);
    }
    coord.Stop();
    clock.RunAll();

    auto left = mem->List("intermediate/");
    ASSERT_TRUE(left.ok());
    for (const auto& f : *left) ADD_FAILURE() << "leaked: " << f;
  }
  // The chaos was real: faults hit this workload and were absorbed.
  EXPECT_GT(injector->stats().injected_read_errors, 0u);
}

}  // namespace
}  // namespace pixels
