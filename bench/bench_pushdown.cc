// E7 — Operator pushdown into CF sub-plans (paper §3.1).
//
// Runs TPC-H aggregations and joins directly in one process vs through
// the CF pushdown path (sub-plan partitioned over a worker fleet, partial
// results written to object storage as materialized views, merged by the
// top-level plan). Reports correctness, bytes scanned, and simulated
// latency for worker fleets of 1..16, checking:
//   * pushdown results exactly match direct execution,
//   * per-worker runtime shrinks as the fleet grows (the reason CF can
//     absorb spikes),
//   * materialized views flow through object storage, and each query's
//     sweep leaves none behind,
//   * the workers of a concurrent fleet run at the same time (their
//     measured start-end intervals overlap).
#include <chrono>
#include <cstdio>
#include <numeric>

#include "bench_util.h"
#include "exec/executor.h"
#include "plan/binder.h"
#include "plan/optimizer.h"
#include "storage/memory_store.h"
#include "storage/object_store.h"
#include "turbo/cf_worker.h"
#include "workload/tpch.h"

using namespace pixels;
using namespace pixels::bench;

namespace {

std::vector<std::string> Rows(const Table& t) {
  std::vector<std::string> rows;
  for (const auto& b : t.batches()) {
    for (size_t r = 0; r < b->num_rows(); ++r) rows.push_back(b->RowToString(r));
  }
  return rows;
}

/// How many workers ran while another one did: their intervals intersect
/// another worker's (a worker that degraded to the VM path has none).
int OverlappingWorkers(const std::vector<WorkerInterval>& intervals) {
  int count = 0;
  for (size_t i = 0; i < intervals.size(); ++i) {
    for (size_t j = 0; j < intervals.size(); ++j) {
      const WorkerInterval& a = intervals[i];
      const WorkerInterval& b = intervals[j];
      if (i != j && a.start_seconds < b.end_seconds &&
          b.start_seconds < a.end_seconds) {
        ++count;
        break;
      }
    }
  }
  return count;
}

}  // namespace

int main() {
  std::printf("=== E7: CF sub-plan pushdown (paper §3.1) ===\n\n");

  auto storage = std::make_shared<MemoryStore>();
  auto catalog = std::make_shared<Catalog>(storage);
  // Worker views go through a PUT-counting object store over the same data.
  auto views = std::make_shared<ObjectStore>(storage);
  TpchOptions options;
  options.scale_factor = 0.01;
  options.rows_per_file = 4000;  // 15 lineitem files -> fleets up to 15
  Status st = GenerateTpch(catalog.get(), "tpch", options);
  if (!st.ok()) {
    std::printf("generation failed: %s\n", st.ToString().c_str());
    return 1;
  }

  CfServiceParams cf_params;
  bool ok = true;

  const struct {
    const char* name;
    const char* sql;
  } cases[] = {
      {"q1_aggregate",
       "SELECT l_returnflag, l_linestatus, sum(l_quantity), "
       "sum(l_extendedprice), avg(l_discount), count(*) FROM lineitem WHERE "
       "l_shipdate <= DATE '1998-09-02' GROUP BY l_returnflag, l_linestatus "
       "ORDER BY l_returnflag, l_linestatus"},
      {"q6_filter_sum",
       "SELECT sum(l_extendedprice * l_discount) FROM lineitem WHERE "
       "l_shipdate >= DATE '1994-01-01' AND l_shipdate < DATE '1995-01-01' "
       "AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24"},
      {"join_agg",
       "SELECT o.o_orderpriority, count(*) AS n FROM orders o JOIN lineitem "
       "l ON o.o_orderkey = l.l_orderkey GROUP BY o.o_orderpriority ORDER BY "
       "o.o_orderpriority"},
  };

  for (const auto& c : cases) {
    ExecContext direct_ctx;
    direct_ctx.catalog = catalog.get();
    auto direct = ExecuteQuery(c.sql, "tpch", &direct_ctx);
    if (!direct.ok()) {
      std::printf("%s direct failed: %s\n", c.name,
                  direct.status().ToString().c_str());
      return 1;
    }
    std::printf("-- %s (direct: %llu bytes scanned) --\n", c.name,
                static_cast<unsigned long long>(direct_ctx.bytes_scanned));
    std::printf("%8s %10s %14s %16s %14s\n", "workers", "used", "match",
                "bytes_scanned", "sim_latency");

    double prev_latency = 1e18;
    bool monotonic = true;
    for (int workers : {1, 2, 4, 8, 16}) {
      auto plan = PlanQuery(c.sql, *catalog, "tpch");
      if (!plan.ok()) return 1;
      auto optimized = Optimize(std::move(plan).ValueOrDie(), *catalog);
      CfWorkerOptions wopts;
      wopts.num_workers = workers;
      wopts.intermediate_store = views.get();
      wopts.view_prefix =
          "intermediate/" + std::string(c.name) + "." + std::to_string(workers);
      auto exec = ExecuteWithCfPushdown(*optimized, catalog.get(), wopts);
      if (!exec.ok()) {
        std::printf("pushdown failed: %s\n", exec.status().ToString().c_str());
        return 1;
      }
      bool match = Rows(**direct) == Rows(*exec->result);
      ok &= match;
      // Simulated CF latency: startup + per-worker share of the scan work.
      double per_worker_s = exec->work_vcpu_seconds /
                            std::max(exec->workers_used, 1) /
                            cf_params.vcpus_per_worker;
      double sim_latency = 1.0 + per_worker_s;  // 1s startup
      if (exec->workers_used > 1 && sim_latency > prev_latency + 1e-9) {
        monotonic = false;
      }
      prev_latency = sim_latency;
      std::printf("%8d %10d %14s %16llu %12.3fs\n", workers,
                  exec->workers_used, match ? "exact" : "MISMATCH",
                  static_cast<unsigned long long>(exec->bytes_scanned),
                  sim_latency);
    }
    ok &= Check(monotonic,
                std::string(c.name) + ": latency shrinks with fleet size");
    std::printf("\n");
  }
  Check(ok, "all pushdown results exactly match direct execution");

  // --- concurrent CF fleet: measured wall-clock overlap ---
  // The same 8-worker fleet run serially (fleet_parallelism = 1) vs
  // concurrently on the shared pool. Overlap means two workers' measured
  // start-end intervals intersect: they ran at once, the property that
  // lets hundreds of CF workers absorb a spike in parallel. The fleet
  // time against the sum of worker times is printed, not checked: it
  // also counts the time a pool thread takes to wake. On a VM an idle
  // vCPU can take several milliseconds to wake, so the fleet scans 8x
  // the rows above (a few ms per worker): a fleet shorter than one
  // wake-up would run entirely on the calling thread.
  std::printf("-- concurrent fleet overlap (q1_aggregate, 8 workers) --\n");
  auto fleet_catalog =
      std::make_shared<Catalog>(std::make_shared<MemoryStore>());
  TpchOptions fleet_data;
  fleet_data.scale_factor = 0.08;
  fleet_data.rows_per_file = 32000;
  st = GenerateTpch(fleet_catalog.get(), "tpch", fleet_data);
  if (!st.ok()) {
    std::printf("generation failed: %s\n", st.ToString().c_str());
    return 1;
  }
  bool overlap_ok = true, serial_apart = true;
  double serial_elapsed = 0, concurrent_elapsed = 0;
  for (int fleet_par : {1, 8}) {
    auto plan = PlanQuery(cases[0].sql, *fleet_catalog, "tpch");
    if (!plan.ok()) return 1;
    auto optimized = Optimize(std::move(plan).ValueOrDie(), *fleet_catalog);
    CfWorkerOptions wopts;
    wopts.num_workers = 8;
    wopts.fleet_parallelism = fleet_par;
    wopts.intermediate_store = views.get();
    wopts.view_prefix = "intermediate/overlap." + std::to_string(fleet_par);
    const auto t0 = std::chrono::steady_clock::now();
    auto exec = ExecuteWithCfPushdown(*optimized, fleet_catalog.get(), wopts);
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    if (!exec.ok()) {
      std::printf("pushdown failed: %s\n", exec.status().ToString().c_str());
      return 1;
    }
    const double worker_sum =
        std::accumulate(exec->worker_elapsed_seconds.begin(),
                        exec->worker_elapsed_seconds.end(), 0.0);
    const int overlapping = OverlappingWorkers(exec->worker_intervals);
    std::printf(
        "  fleet_parallelism=%d: wall %.1f ms, fleet %.1f ms, "
        "sum(worker wall) %.1f ms, workers overlapping another %d\n",
        fleet_par, elapsed * 1e3, exec->fleet_elapsed_seconds * 1e3,
        worker_sum * 1e3, overlapping);
    if (fleet_par == 1) {
      serial_elapsed = exec->fleet_elapsed_seconds;
      serial_apart = overlapping == 0;
    } else {
      concurrent_elapsed = exec->fleet_elapsed_seconds;
      overlap_ok = overlapping >= 2;
    }
  }
  std::printf("  serial fleet %.1f ms -> concurrent fleet %.1f ms (%.2fx)\n",
              serial_elapsed * 1e3, concurrent_elapsed * 1e3,
              concurrent_elapsed > 0 ? serial_elapsed / concurrent_elapsed
                                     : 0.0);
  ok &= Check(serial_apart, "serial fleet workers never overlap");
  ok &= Check(overlap_ok,
              "at least two concurrent fleet workers ran at the same time");
  std::printf("\n");

  auto left = storage->List("intermediate/");
  bool views_ok =
      Check(views->stats().put_requests >= 15 && left.ok() && left->empty(),
            "worker views written to object storage and swept after each "
            "query");

  std::printf("\nE7 overall: %s\n", ok && views_ok ? "PASS" : "FAIL");
  return ok && views_ok ? 0 : 1;
}
