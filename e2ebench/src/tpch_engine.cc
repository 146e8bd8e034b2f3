// tpch_engine: one client runs a closed loop of the 9-query TpchQuerySet()
// in seeded order through direct ExecuteQuery at parallelism=1, over TPC-H
// SF 0.1 in a MemoryStore with no chunk cache (every chunk read reaches
// storage). sql, plan, exec and format do nearly all the work; server,
// turbo, cloud and mv do none, so control-plane changes should not move it.
#include <algorithm>
#include <cstdio>
#include <map>

#include "common/thread_pool.h"
#include "exec/executor.h"
#include "exec/profile.h"
#include "harness.h"
#include "plan/binder.h"
#include "plan/optimizer.h"
#include "sql/parser.h"
#include "storage/memory_store.h"
#include "workload/tpch.h"

namespace e2e {
namespace {

using namespace pixels;

constexpr const char* kDb = "tpch";
constexpr double kScaleFactor = 0.1;
constexpr int kSetups = 9;

struct Dataset {
  std::shared_ptr<TimingStorage> timing;  // traced runs only
  std::shared_ptr<Catalog> catalog;
};

Result<Dataset> Load(uint64_t seed, bool timed_storage) {
  Dataset d;
  std::shared_ptr<Storage> storage = std::make_shared<MemoryStore>();
  if (timed_storage) {
    d.timing = std::make_shared<TimingStorage>(storage);
    storage = d.timing;
  }
  d.catalog = std::make_shared<Catalog>(storage);
  TpchOptions options;
  options.scale_factor = kScaleFactor;
  options.seed = seed;
  PIXELS_RETURN_NOT_OK(GenerateTpch(d.catalog.get(), kDb, options));
  return d;
}

/// Everything one timed phase observed.
struct Phase {
  size_t passes = 0;
  size_t queries = 0;
  size_t failed = 0;
  double wall_s = 0;
  /// Per query (TpchQuerySet index): wall ms and result digest of every
  /// execution.
  std::vector<std::vector<double>> ms;
  std::vector<std::vector<uint64_t>> digests;
  // Traced phases only.
  std::map<std::string, double> self_ms;  // operator kind -> total self ms
  uint64_t rows_scanned = 0;
  uint64_t filter_rows_in = 0;
  uint64_t filter_rows_out = 0;
  uint64_t rf_probe_rows = 0;
  uint64_t rf_pruned_rows = 0;
};

/// Self time of every profiled operator, keyed by kind: inclusive wall_us
/// minus the children's inclusive wall_us.
void AccumulateSelfTime(const OperatorProfile& node, Phase* phase) {
  uint64_t children_us = 0;
  uint64_t children_rows = 0;
  for (const OperatorProfile* child : node.children) {
    children_us += child->wall_us.load();
    children_rows += child->rows_out.load();
    AccumulateSelfTime(*child, phase);
  }
  const double self_ms =
      static_cast<double>(node.wall_us.load() -
                          std::min(node.wall_us.load(), children_us)) /
      1e3;
  std::string kind;
  if (node.name.rfind("Scan(", 0) == 0) {
    kind = "scan";
  } else if (node.name == "Filter") {
    kind = "filter";
    phase->filter_rows_in += children_rows;
    phase->filter_rows_out += node.rows_out.load();
  } else if (node.name == "Project") {
    kind = "project";
  } else if (node.name == "HashAgg") {
    kind = "hash_agg";
  } else if (node.name == "HashJoin") {
    kind = "hash_join";
  } else if (node.name == "Sort") {
    kind = "sort";
  } else {
    return;
  }
  phase->self_ms[kind] += self_ms;
}

/// Runs one query. Untraced: ExecuteQuery. Traced: the public steps in
/// order (ParseSelect -> BindSelect -> Optimize -> ExecutePlan), each in a
/// span, with a QueryProfile for operator self times.
Result<TablePtr> RunQuery(const TpchQuery& query, Catalog* catalog,
                          int parallelism, SpanLog* spans, int64_t query_id,
                          Phase* phase) {
  ExecContext ctx;
  ctx.catalog = catalog;
  ctx.parallelism = parallelism;
  if (!spans->enabled()) return ExecuteQuery(query.sql, kDb, &ctx);

  ScopedSpan root(spans, "query", 0, query_id);
  SelectStmtPtr stmt;
  {
    ScopedSpan s(spans, "sql.parse", root.id(), query_id);
    PIXELS_ASSIGN_OR_RETURN(stmt, ParseSelect(query.sql));
  }
  PlanPtr plan;
  {
    ScopedSpan s(spans, "plan.bind", root.id(), query_id);
    PIXELS_ASSIGN_OR_RETURN(plan, BindSelect(*stmt, *catalog, kDb));
  }
  {
    ScopedSpan s(spans, "plan.optimize", root.id(), query_id);
    PIXELS_ASSIGN_OR_RETURN(plan, Optimize(std::move(plan), *catalog));
  }
  QueryProfile profile;
  ctx.profile = &profile;
  TablePtr table;
  {
    ScopedSpan s(spans, "exec.execute", root.id(), query_id);
    PIXELS_ASSIGN_OR_RETURN(table, ExecutePlan(plan, &ctx));
  }
  for (const OperatorProfile* node : profile.Roots()) {
    AccumulateSelfTime(*node, phase);
  }
  phase->rows_scanned += ctx.rows_scanned.load();
  phase->rf_probe_rows += ctx.rf_probe_rows.load();
  phase->rf_pruned_rows += ctx.rf_pruned_rows.load();
  return table;
}

/// Closed loop: whole passes over the query set, each in a seeded order,
/// until `seconds` of wall time have passed (at least one pass).
Phase RunPhase(Catalog* catalog, uint64_t seed, double seconds,
               SpanLog* spans) {
  const std::vector<TpchQuery>& queries = TpchQuerySet();
  Phase phase;
  phase.ms.resize(queries.size());
  phase.digests.resize(queries.size());
  Random rng(seed * 0x9E3779B97F4A7C15ULL + 11);
  std::vector<size_t> order(queries.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  const int64_t start = NowNs();
  do {
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.Uniform(0, static_cast<int64_t>(i) - 1)]);
    }
    for (size_t q : order) {
      const int64_t t0 = NowNs();
      auto result = RunQuery(queries[q], catalog, 1, spans,
                             static_cast<int64_t>(phase.queries + 1), &phase);
      const double ms = static_cast<double>(NowNs() - t0) / 1e6;
      ++phase.queries;
      if (!result.ok()) {
        ++phase.failed;
        std::fprintf(stderr, "%s failed: %s\n", queries[q].name.c_str(),
                     result.status().ToString().c_str());
        continue;
      }
      phase.ms[q].push_back(ms);
      phase.digests[q].push_back(
          ResultDigest(**result, queries[q].sql));
    }
    ++phase.passes;
  } while (SecondsSince(start) < seconds);
  phase.wall_s = SecondsSince(start);
  return phase;
}

/// Correctness gate, run after timing: every execution of a query returned
/// the same digest, and it equals a run at parallelism=nproc. Returns the
/// number of queries whose results were wrong.
size_t CheckResults(Catalog* catalog, const std::vector<const Phase*>& phases) {
  const std::vector<TpchQuery>& queries = TpchQuerySet();
  SpanLog off(false);
  Phase scratch;
  size_t wrong = 0;
  for (size_t q = 0; q < queries.size(); ++q) {
    auto parallel = RunQuery(queries[q], catalog, DefaultParallelism(), &off,
                             0, &scratch);
    if (!parallel.ok()) {
      std::fprintf(stderr, "%s failed at parallelism=%d: %s\n",
                   queries[q].name.c_str(), DefaultParallelism(),
                   parallel.status().ToString().c_str());
      ++wrong;
      continue;
    }
    const uint64_t expected =
        ResultDigest(**parallel, queries[q].sql);
    for (const Phase* phase : phases) {
      for (uint64_t d : phase->digests[q]) {
        if (d != expected) {
          std::fprintf(stderr, "%s: result differs from parallel run\n",
                       queries[q].name.c_str());
          ++wrong;
        }
      }
    }
  }
  return wrong;
}

}  // namespace

int RunTpchEngine(const Args& args) {
  const std::vector<TpchQuery>& queries = TpchQuerySet();
  Report report;

  // Set-up: generate and load the data several times; report the median.
  std::vector<double> setup_s;
  Dataset data;
  for (int i = 0; i < kSetups; ++i) {
    data = Dataset{};  // release the previous copy first
    const int64_t t0 = NowNs();
    auto loaded = Load(args.seed, args.trace);
    setup_s.push_back(SecondsSince(t0));
    if (!loaded.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n",
                   loaded.status().ToString().c_str());
      return 1;
    }
    data = std::move(loaded).ValueOrDie();
  }
  Catalog* catalog = data.catalog.get();

  // Untimed warm-up pass: first-touch of the heap and the footer cache.
  SpanLog off(false);
  RunPhase(catalog, args.seed + 1, 0, &off);

  const Phase timed = RunPhase(catalog, args.seed, args.seconds, &off);
  // Peak memory of the workload itself, before the traced phase and the
  // correctness checks add their own.
  report.Add("peak_rss_mb", PeakRssMb());
  uint64_t result_digest = kDigestSeed;
  for (const std::vector<uint64_t>& d : timed.digests) {
    result_digest = Fold(result_digest, d.empty() ? 0 : d.front());
  }
  std::printf("tpch_engine: seed=%llu passes=%zu queries=%zu wall=%.3fs "
              "result_digest=%016llx\n",
              static_cast<unsigned long long>(args.seed), timed.passes,
              timed.queries, timed.wall_s,
              static_cast<unsigned long long>(result_digest));

  std::vector<const Phase*> checked = {&timed};
  Phase traced;
  SpanLog spans(args.trace);
  if (args.trace) {
    const StorageTiming before = data.timing->timing();
    traced = RunPhase(catalog, args.seed, args.seconds, &spans);
    const StorageTiming after = data.timing->timing();
    checked.push_back(&traced);
    const double n = static_cast<double>(std::max<size_t>(traced.queries, 1));
    report.Add("sql.parse_us", spans.MeanUs("sql.parse"));
    report.Add("plan.bind_us", spans.MeanUs("plan.bind"));
    report.Add("plan.optimize_us", spans.MeanUs("plan.optimize"));
    for (const char* op :
         {"scan", "filter", "project", "hash_agg", "hash_join", "sort"}) {
      report.Add(std::string("exec.") + op + "_self_ms",
                 traced.self_ms[op] / static_cast<double>(traced.passes),
                 "per pass");
    }
    for (size_t q = 0; q < queries.size(); ++q) {
      report.Add("exec.query_ms." + queries[q].name, Median(traced.ms[q]),
                 "median n=" + std::to_string(traced.ms[q].size()));
    }
    report.Add("exec.rows_scanned", static_cast<double>(traced.rows_scanned) / n);
    report.Add("exec.filter_selectivity",
               traced.filter_rows_in == 0
                   ? 0
                   : static_cast<double>(traced.filter_rows_out) /
                         static_cast<double>(traced.filter_rows_in));
    report.Add("exec.rf_useful_ratio",
               traced.rf_probe_rows == 0
                   ? 0
                   : static_cast<double>(traced.rf_pruned_rows) /
                         static_cast<double>(traced.rf_probe_rows));
    report.Add("storage.read_calls",
               static_cast<double>(after.read_calls - before.read_calls) / n);
    report.Add("storage.read_mb",
               static_cast<double>(after.read_bytes - before.read_bytes) / 1e6 / n);
    report.Add("storage.read_busy_ms",
               (after.read_busy_ms - before.read_busy_ms) / n);
    const double untraced_qps = static_cast<double>(timed.queries) / timed.wall_s;
    const double traced_qps = static_cast<double>(traced.queries) / traced.wall_s;
    report.Add("trace.overhead_ratio", untraced_qps / traced_qps);
    report.ZeroMissing(Kind::kLayer);
  }

  const size_t wrong = CheckResults(catalog, checked);
  const size_t failed = timed.failed + traced.failed + wrong;
  const size_t attempted = timed.queries + traced.queries;

  std::vector<double> medians;
  for (size_t q = 0; q < queries.size(); ++q) {
    if (!timed.ms[q].empty()) medians.push_back(Median(timed.ms[q]));
  }
  report.Add("setup_s", Median(setup_s),
             "median of " + std::to_string(kSetups) + " loads of SF 0.1");
  report.Add("qps", static_cast<double>(timed.queries) / timed.wall_s,
             "closed loop, 1 client, parallelism=1");
  report.Add("query_ms_geomean", GeoMean(medians),
             "geomean of 9 per-query medians, " +
                 std::to_string(timed.passes) + " passes");
  return Finish(args, spans, attempted, failed, &report);
}

}  // namespace e2e
