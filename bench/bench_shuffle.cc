// E15 — Multi-stage CF shuffle: exchange overhead, hedged straggler
// mitigation, and billing identity.
//
// A TPC-H equi-join (lineitem x orders) runs as a scan->shuffle->join
// DAG of CF stages, swept over
//   partitions x hedging x straggler rate,
// with stragglers injected as deterministic per-path slow rules on the
// join stage's task attempts (simulated milliseconds — the same model
// FaultInjectingStorage::PathSlowMs feeds in production). For every
// configuration the bench checks:
//   * result rows and scanned bytes byte-identical to the single-stage
//     CF fleet (exchange traffic is intermediate, never billed),
//   * hedge counters zero when no straggler is injected,
//   * with stragglers, hedging recovers >= half of the injected p99
//     latency relative to the unhedged run,
//   * the exchange prefix is swept clean after every run.
//
// The full run prints the sweep tables and writes BENCH_shuffle.json
// (machine-readable, checked in). `--shuffle-smoke` runs the CI gate:
// one small configuration exercising every invariant above.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/event_log.h"
#include "exec/executor.h"
#include "plan/binder.h"
#include "plan/optimizer.h"
#include "storage/memory_store.h"
#include "turbo/cf_worker.h"
#include "workload/tpch.h"

using namespace pixels;
using namespace pixels::bench;

namespace {

const char* kJoinSql =
    "SELECT o_orderpriority, count(*) AS n, sum(l_extendedprice) AS rev "
    "FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey "
    "GROUP BY o_orderpriority ORDER BY o_orderpriority";

std::shared_ptr<Catalog> BuildCatalog(double scale_factor) {
  auto storage = std::make_shared<MemoryStore>();
  auto catalog = std::make_shared<Catalog>(storage);
  TpchOptions topt;
  topt.scale_factor = scale_factor;
  topt.rows_per_file = 2000;
  if (!GenerateTpch(catalog.get(), "tpch", topt).ok()) return nullptr;
  return catalog;
}

PlanPtr PlanJoin(Catalog* catalog) {
  auto plan = PlanQuery(kJoinSql, *catalog, "tpch");
  if (!plan.ok()) return nullptr;
  auto optimized = Optimize(std::move(plan).ValueOrDie(), *catalog);
  return optimized.ok() ? *optimized : nullptr;
}

std::vector<std::string> ResultRows(const Table& t) {
  std::vector<std::string> rows;
  for (const auto& b : t.batches()) {
    for (size_t r = 0; r < b->num_rows(); ++r)
      rows.push_back(b->RowToString(r));
  }
  return rows;
}

/// Direct (VM-path) execution of the join: the bytes_scanned reference.
/// Each base table is scanned exactly once — which is also what the
/// shuffle DAG does. (The single-stage fleet REPLICATES the build-side
/// scan per worker, so its billed bytes grow with the fleet; the shuffle
/// comparison therefore pins the VM identity, not the replicated one.)
/// Runtime filters off to match the shuffle configurations.
uint64_t DirectBytes(Catalog* catalog, std::vector<std::string>* rows) {
  ExecContext ctx;
  ctx.catalog = catalog;
  ctx.runtime_filters = false;
  auto r = ExecutePlan(PlanJoin(catalog), &ctx);
  if (!r.ok()) return 0;
  if (rows != nullptr) *rows = ResultRows(**r);
  return ctx.bytes_scanned.load();
}

struct RunOut {
  bool ok = false;
  bool shuffle_used = false;
  std::vector<std::string> rows;
  uint64_t bytes_scanned = 0;
  int hedges_fired = 0;
  int hedges_won = 0;
  uint64_t exchange_written = 0;
  uint64_t exchange_read = 0;
  double critical_path_ms = 0;
  double p99_final_stage_ms = 0;
  size_t objects_swept = 0;
  size_t leaked_objects = 0;
};

/// --verbose: replay the run's event log as a per-stage timeline.
bool g_verbose = false;

void PrintTimeline(const EventLog& log) {
  for (const EventRecord& e : log.Snapshot()) {
    if (e.type == "shuffle.stage_start") {
      std::printf("  [%8.1fms] stage %lld (%s) start, %lld tasks\n",
                  static_cast<double>(e.time),
                  static_cast<long long>(e.fields.Get("stage").AsInt()),
                  e.fields.Get("name").AsString().c_str(),
                  static_cast<long long>(e.fields.Get("tasks").AsInt()));
    } else if (e.type == "shuffle.task_commit") {
      std::printf("  [%8.1fms]   s%lld/t%lld commit winner=%s "
                  "completion=%.1fms retries=%lld\n",
                  static_cast<double>(e.time),
                  static_cast<long long>(e.fields.Get("stage").AsInt()),
                  static_cast<long long>(e.fields.Get("task").AsInt()),
                  e.fields.Get("winner").AsString().c_str(),
                  e.fields.Get("completion_ms").AsNumber(),
                  static_cast<long long>(e.fields.Get("retries").AsInt()));
    } else if (e.type == "shuffle.stage_done") {
      std::printf("  [%8.1fms] stage %lld done wall=%.1fms hedges=%lld/%lld "
                  "bytes=%lld\n",
                  static_cast<double>(e.time),
                  static_cast<long long>(e.fields.Get("stage").AsInt()),
                  e.fields.Get("wall_ms").AsNumber(),
                  static_cast<long long>(e.fields.Get("hedges_won").AsInt()),
                  static_cast<long long>(e.fields.Get("hedges_fired").AsInt()),
                  static_cast<long long>(e.fields.Get("bytes").AsInt()));
    }
  }
}

/// One CF execution. `straggled` lists join-stage task ids whose every
/// attempt (but never the hedge duplicate) is slowed by `slow_ms`
/// simulated milliseconds.
RunOut RunConfig(Catalog* catalog, bool shuffle, int partitions, bool hedging,
                 const std::vector<int>& straggled, double slow_ms) {
  CfWorkerOptions options;
  options.num_workers = 4;
  options.runtime_filters = false;  // per-topology pruning differs; see E13
  options.shuffle.enabled = shuffle;
  options.shuffle.partitions = partitions;
  options.shuffle.producer_tasks = 4;
  options.shuffle.hedging = hedging;
  if (!straggled.empty()) {
    options.shuffle.path_slow_ms = [straggled, slow_ms](const std::string& p) {
      for (int t : straggled) {
        if (p.find("s2/t" + std::to_string(t) + ".a") != std::string::npos)
          return slow_ms;
      }
      return 0.0;
    };
  }

  EventLog log;
  if (g_verbose && shuffle) options.event_log = &log;

  RunOut out;
  auto exec = ExecuteWithCfPushdown(PlanJoin(catalog), catalog, options);
  if (!exec.ok()) {
    std::printf("run failed: %s\n", exec.status().ToString().c_str());
    return out;
  }
  if (g_verbose && shuffle) {
    std::printf("timeline: partitions=%d hedging=%d stragglers=%zu\n",
                partitions, hedging ? 1 : 0, straggled.size());
    PrintTimeline(log);
  }
  out.ok = true;
  out.shuffle_used = exec->shuffle_used;
  out.rows = ResultRows(*exec->result);
  out.bytes_scanned = exec->bytes_scanned;
  out.hedges_fired = exec->hedges_fired;
  out.hedges_won = exec->hedges_won;
  out.exchange_written = exec->shuffle_bytes_written;
  out.exchange_read = exec->shuffle_bytes_read;
  out.critical_path_ms = exec->shuffle_critical_path_ms;
  out.objects_swept = exec->shuffle_objects_swept;
  auto leftovers = catalog->storage()->List("intermediate/view/");
  out.leaked_objects = leftovers.ok() ? leftovers->size() : 1;
  return out;
}

/// Join-stage task completion p99 is not exported through CfExecution, so
/// approximate it with the critical path: the DAG makespan is dominated
/// by the slowest join task, which is exactly what hedging shortens.
double P99(const RunOut& o) { return o.critical_path_ms; }

struct SweepRow {
  int partitions = 0;
  bool hedging = false;
  double rate = 0;
  RunOut run;
  double recovery_pct = -1;  // vs unhedged, when stragglers were injected
  bool identical = false;
  bool bytes_equal = false;
};

std::vector<int> StraggledTasks(int partitions, double rate) {
  // Deterministic straggler set: the first ceil(rate * partitions) tasks.
  std::vector<int> out;
  const int n = static_cast<int>(rate * partitions + 0.999);
  for (int t = 0; t < n && t < partitions; ++t) out.push_back(t);
  return out;
}

constexpr double kSlowMs = 30000.0;  // 30 s simulated straggler penalty

int RunSweep(const char* out_path) {
  std::printf("=== E15: CF shuffle (partitions x hedging x stragglers) ===\n\n");
  auto catalog = BuildCatalog(0.005);
  if (catalog == nullptr) return 1;

  std::vector<std::string> direct_rows;
  const uint64_t direct_bytes = DirectBytes(catalog.get(), &direct_rows);
  const RunOut single =
      RunConfig(catalog.get(), /*shuffle=*/false, 0, false, {}, 0);
  if (!single.ok || direct_bytes == 0) return 1;
  std::printf("direct (VM-path) baseline: %llu bytes scanned "
              "(single-stage fleet: %llu — build side replicated per "
              "worker)\n\n",
              static_cast<unsigned long long>(direct_bytes),
              static_cast<unsigned long long>(single.bytes_scanned));

  std::printf("%5s %6s %6s %7s %7s %10s %10s %12s %12s %9s\n", "parts",
              "hedge", "rate", "fired", "won", "xchg_wr", "xchg_rd",
              "critpath_ms", "p99_ms", "recov%");

  bool ok = true;
  std::vector<SweepRow> rows;
  for (int partitions : {2, 4, 8}) {
    for (double rate : {0.0, 0.125, 0.25}) {
      const auto straggled = StraggledTasks(partitions, rate);
      // Unhedged first: the recovery denominator.
      SweepRow off;
      off.partitions = partitions;
      off.hedging = false;
      off.rate = rate;
      off.run = RunConfig(catalog.get(), true, partitions, false, straggled,
                          kSlowMs);
      SweepRow on;
      on.partitions = partitions;
      on.hedging = true;
      on.rate = rate;
      on.run = RunConfig(catalog.get(), true, partitions, true, straggled,
                         kSlowMs);
      for (SweepRow* row : {&off, &on}) {
        ok &= row->run.ok && row->run.shuffle_used;
        row->identical =
            row->run.rows == single.rows && row->run.rows == direct_rows;
        row->bytes_equal = row->run.bytes_scanned == direct_bytes;
        ok &= Check(row->identical,
                    "rows identical to single-stage and VM path (P=" +
                        std::to_string(partitions) + ")");
        ok &= Check(row->bytes_equal, "bytes identical to the VM path");
        ok &= Check(row->run.leaked_objects == 0, "exchange prefix swept");
      }
      if (!straggled.empty() && partitions >= 4) {
        // Recovery: how much of the injected p99 inflation hedging undid.
        const double injected = P99(off.run) - P99(on.run);
        const double baselineless = P99(off.run);
        on.recovery_pct = baselineless > 0 ? 100.0 * injected / baselineless
                                           : 0;
        ok &= Check(on.run.hedges_fired >= static_cast<int>(straggled.size()),
                    "hedges fired for every straggler");
        ok &= Check(on.run.hedges_won >= 1, "a hedge won the commit race");
        ok &= Check(P99(on.run) * 2 <= P99(off.run),
                    "hedging recovered >= half the injected p99 latency");
      } else if (!straggled.empty()) {
        // P=2 with one straggler = half the stage is slow: a quantile
        // cutoff cannot (and should not) separate that from a uniformly
        // slow stage, so only the identity invariants apply.
      } else {
        ok &= Check(off.run.hedges_fired == 0 && on.run.hedges_fired == 0,
                    "no straggler -> no hedge fires");
      }
      for (const SweepRow& row : {off, on}) {
        std::printf("%5d %6s %5.0f%% %7d %7d %10llu %10llu %12.1f %12.1f ",
                    row.partitions, row.hedging ? "on" : "off",
                    row.rate * 100, row.run.hedges_fired, row.run.hedges_won,
                    static_cast<unsigned long long>(row.run.exchange_written),
                    static_cast<unsigned long long>(row.run.exchange_read),
                    row.run.critical_path_ms, P99(row.run));
        if (row.recovery_pct >= 0) {
          std::printf("%8.1f%%\n", row.recovery_pct);
        } else {
          std::printf("%9s\n", "-");
        }
        rows.push_back(row);
      }
    }
  }

  FILE* f = std::fopen(out_path, "w");
  if (f != nullptr) {
    std::fprintf(f, "{\n  \"bench\": \"shuffle\",\n");
    std::fprintf(f, "  \"query\": \"lineitem x orders group-by\",\n");
    std::fprintf(f, "  \"straggler_slow_ms\": %.0f,\n", kSlowMs);
    std::fprintf(f, "  \"vm_path_bytes\": %llu,\n",
                 static_cast<unsigned long long>(direct_bytes));
    std::fprintf(f, "  \"single_stage_bytes\": %llu,\n",
                 static_cast<unsigned long long>(single.bytes_scanned));
    std::fprintf(f, "  \"sweep\": [\n");
    for (size_t i = 0; i < rows.size(); ++i) {
      const SweepRow& r = rows[i];
      std::fprintf(
          f,
          "    {\"partitions\": %d, \"hedging\": %s, \"straggler_rate\": "
          "%.3f, \"hedges_fired\": %d, \"hedges_won\": %d, "
          "\"exchange_written\": %llu, \"exchange_read\": %llu, "
          "\"critical_path_ms\": %.1f, \"recovery_pct\": %.1f, "
          "\"identical\": %s, \"bytes_equal\": %s}%s\n",
          r.partitions, r.hedging ? "true" : "false", r.rate,
          r.run.hedges_fired, r.run.hedges_won,
          static_cast<unsigned long long>(r.run.exchange_written),
          static_cast<unsigned long long>(r.run.exchange_read),
          r.run.critical_path_ms, r.recovery_pct,
          r.identical ? "true" : "false", r.bytes_equal ? "true" : "false",
          i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"overall\": \"%s\"\n}\n",
                 ok ? "PASS" : "FAIL");
    std::fclose(f);
    std::printf("\nwrote %s\n", out_path);
  }

  std::printf("\nE15 overall: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

int RunSmoke() {
  std::printf("=== E15 smoke: shuffle identity + hedged straggler (CI) ===\n");
  auto catalog = BuildCatalog(0.002);
  if (catalog == nullptr) return 1;

  std::vector<std::string> direct_rows;
  const uint64_t direct_bytes = DirectBytes(catalog.get(), &direct_rows);
  const RunOut single =
      RunConfig(catalog.get(), /*shuffle=*/false, 0, false, {}, 0);
  const RunOut clean = RunConfig(catalog.get(), true, 4, true, {}, 0);
  const RunOut unhedged = RunConfig(catalog.get(), true, 4, false, {0},
                                    kSlowMs);
  const RunOut hedged = RunConfig(catalog.get(), true, 4, true, {0}, kSlowMs);

  bool ok = true;
  ok &= Check(direct_bytes > 0 && single.ok && clean.ok && unhedged.ok &&
                  hedged.ok,
              "all configurations executed");
  if (!ok) return 1;
  ok &= Check(clean.shuffle_used && hedged.shuffle_used,
              "shuffle DAG was used");
  ok &= Check(clean.rows == direct_rows && clean.rows == single.rows &&
                  hedged.rows == direct_rows && unhedged.rows == direct_rows,
              "rows byte-identical across VM/single-stage/shuffle/hedged");
  ok &= Check(clean.bytes_scanned == direct_bytes &&
                  hedged.bytes_scanned == direct_bytes &&
                  unhedged.bytes_scanned == direct_bytes,
              "scanned bytes identical to the VM path (exchange traffic "
              "never billed)");
  ok &= Check(clean.hedges_fired == 0, "no straggler -> no hedge");
  ok &= Check(hedged.hedges_fired >= 1 && hedged.hedges_won >= 1,
              "straggler was hedged and the hedge won");
  ok &= Check(hedged.critical_path_ms * 2 <= unhedged.critical_path_ms,
              "hedging recovered >= half the injected p99 latency");
  ok &= Check(clean.leaked_objects == 0 && hedged.leaked_objects == 0 &&
                  unhedged.leaked_objects == 0,
              "exchange prefix swept after every run");
  ok &= Check(clean.objects_swept > 0, "the sweep had real objects to GC");

  std::printf("E15 smoke: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = "BENCH_shuffle.json";
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--shuffle-smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--verbose") == 0) g_verbose = true;
    if (std::strncmp(argv[i], "--out=", 6) == 0) out_path = argv[i] + 6;
  }
  return smoke ? RunSmoke() : RunSweep(out_path);
}
