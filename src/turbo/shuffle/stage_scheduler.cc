#include "turbo/shuffle/stage_scheduler.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "cloud/metrics.h"
#include "common/thread_pool.h"
#include "format/reader.h"
#include "storage/object_store.h"
#include "storage/retrying_storage.h"
#include "turbo/shuffle/exchange.h"

namespace pixels {

bool ExchangeCommitTable::Offer(int stage, int task, const Claim& claim,
                                Claim* loser) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto key = std::make_pair(stage, task);
  auto it = slots_.find(key);
  if (it == slots_.end()) {
    slots_.emplace(key, claim);
    return true;
  }
  Claim& held = it->second;
  const bool wins =
      claim.completion_ms < held.completion_ms ||
      (claim.completion_ms == held.completion_ms &&
       claim.attempt_rank < held.attempt_rank);
  if (wins) {
    if (loser != nullptr) *loser = held;
    held = claim;
    return true;
  }
  if (loser != nullptr) *loser = claim;
  return false;
}

ExchangeCommitTable::Claim ExchangeCommitTable::Get(int stage,
                                                    int task) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = slots_.find(std::make_pair(stage, task));
  return it != slots_.end() ? it->second : Claim{};
}

namespace {

/// Simulated backoff before a task's second attempt, doubled per further
/// attempt.
constexpr double kRetryBackoffMs = 200.0;
/// Hedge cutoff: a primary whose simulated duration exceeds
/// Percentile(the stage's primary durations, kHedgeQuantile) x
/// kHedgeDelayFactor gets one duplicate.
constexpr double kHedgeQuantile = 75.0;
constexpr double kHedgeDelayFactor = 1.5;

/// Simulated latency of one exchange GET/PUT: the object store's own
/// model when the store is one, else the same S3-like default formula.
double EstimateIoMs(Storage* storage, uint64_t bytes) {
  if (bytes == 0) return 0;
  if (auto* os = dynamic_cast<ObjectStore*>(storage)) {
    return os->EstimateReadLatencyMs(bytes);
  }
  return 15.0 + static_cast<double>(bytes) / (90.0 * 1e6) * 1000.0;
}

std::string TaskPath(const std::string& prefix, int stage, size_t task,
                     const std::string& suffix) {
  return prefix + "/s" + std::to_string(stage) + "/t" + std::to_string(task) +
         suffix;
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Ends the stage's worker spans on every exit path; they stay open until
/// the stage's VM fallbacks have run under them.
struct WorkerSpans {
  Tracer* tracer;
  std::vector<uint64_t> ids;
  ~WorkerSpans() {
    if (tracer == nullptr) return;
    for (uint64_t id : ids) tracer->EndSpan(id);
  }
};

}  // namespace

TablePtr StageOutcome::ConcatTables() const {
  auto table = std::make_shared<Table>();
  for (const TaskOutcome& w : winners) {
    for (const auto& batch : w.fragment.table->batches()) {
      table->AddBatch(batch);
    }
  }
  return table;
}

Result<StageOutcome> RunStage(const CfWorkerOptions& options,
                              const StageSpec& stage, const TaskRunner& run,
                              CfExecution* exec) {
  const size_t n = stage.tasks;
  const int budget = std::max(options.max_worker_attempts, 1);
  const int fleet_par = options.fleet_parallelism > 0
                            ? options.fleet_parallelism
                            : DefaultParallelism();
  Tracer* tracer = LiveTracer(options);
  uint64_t stage_span = 0;
  if (tracer != nullptr) {
    stage_span = tracer->StartSpan("cf-fleet", stage.parent_span);
    tracer->Annotate(stage_span, "stage", stage.name);
    tracer->Annotate(stage_span, "tasks", static_cast<uint64_t>(n));
  }
  ScopedSpan stage_scope(tracer, stage_span);
  WorkerSpans workers{tracer, std::vector<uint64_t>(n, 0)};
  const uint64_t prior_parent = tracer != nullptr ? tracer->ActiveParent() : 0;
  auto fail = [&](const Status& st) {
    if (tracer != nullptr) tracer->Annotate(stage_span, "error", st.ToString());
    return st;
  };
  if (options.event_log != nullptr) {
    // Emitted on the calling thread before the parallel section, so the
    // event order is deterministic.
    Json f = Json::Object();
    f.Set("stage", Json(stage.id));
    f.Set("name", Json(stage.name));
    f.Set("tasks", Json(static_cast<int64_t>(n)));
    options.event_log->Emit("shuffle.stage_start", std::move(f));
  }

  ExchangeCommitTable commit;
  std::vector<TaskOutcome> primary(n);
  std::vector<TaskOutcome> hedge(n);
  std::vector<double> primary_ms(n, 0.0);
  std::vector<int> retries(n, 0);
  std::vector<double> backoff_ms(n, 0.0);
  std::vector<char> recovered(n, 0);
  std::vector<char> fallback(n, 0);
  std::vector<char> hedge_ok(n, 0);
  StageOutcome out;
  out.task_elapsed_seconds.assign(n, 0.0);
  out.task_intervals.assign(n, WorkerInterval{});

  // Simulated duration of one successful attempt, excluding backoff.
  auto sim_ms = [&](const TaskOutcome& o, const std::string& path) {
    const double compute_ms =
        static_cast<double>(o.fragment.bytes_scanned + o.exchange_bytes_read) /
        options.bytes_per_vcpu_second * 1000.0;
    return compute_ms + o.io_ms +
           (options.shuffle.path_slow_ms ? options.shuffle.path_slow_ms(path)
                                         : 0.0);
  };
  // Runs one attempt under `span` (the ambient parent of its storage
  // ops: concurrent attempts race the slot, but the tree stays
  // well-formed and a serial fleet nests exactly).
  auto attempt = [&](size_t t, const std::string& path, uint64_t span,
                     bool vm_fallback) {
    if (tracer != nullptr) tracer->SetActiveParent(span);
    Result<TaskOutcome> r = run(t, path, span, vm_fallback);
    if (tracer != nullptr) {
      if (!r.ok()) tracer->Annotate(span, "error", r.status().ToString());
      tracer->EndSpan(span);
    }
    return r;
  };
  auto offer_primary = [&](size_t t, TaskOutcome o, const std::string& path) {
    primary_ms[t] = sim_ms(o, path) + backoff_ms[t];
    primary[t] = std::move(o);
    commit.Offer(stage.id, static_cast<int>(t),
                 {/*attempt_rank=*/0, primary_ms[t], path});
  };

  // Primary wave. A retryable failure is re-invoked from a fresh context
  // after a backoff; a task that exhausts its budget waits for the VM
  // fallback below.
  const auto wave_start = std::chrono::steady_clock::now();
  auto run_primary = [&](size_t t) -> Status {
    const auto start = std::chrono::steady_clock::now();
    uint64_t& worker_span = workers.ids[t];
    if (tracer != nullptr) {
      worker_span = tracer->StartSpan("cf-worker", stage_span);
      tracer->Annotate(worker_span, "task", static_cast<uint64_t>(t));
    }
    Status last;
    for (int a = 1; a <= budget; ++a) {
      if (a > 1) {
        ++retries[t];
        backoff_ms[t] += std::ldexp(kRetryBackoffMs, a - 2);
      }
      const std::string path =
          TaskPath(stage.prefix, stage.id, t, ".a" + std::to_string(a));
      uint64_t span = 0;
      if (tracer != nullptr) {
        span = tracer->StartSpan("cf-attempt", worker_span);
        tracer->Annotate(span, "attempt", static_cast<uint64_t>(a));
      }
      Result<TaskOutcome> r = attempt(t, path, span, /*vm_fallback=*/false);
      if (r.ok()) {
        if (a > 1) recovered[t] = 1;
        offer_primary(t, std::move(*r), path);
        out.task_elapsed_seconds[t] = SecondsSince(start);
        out.task_intervals[t] = {
            std::chrono::duration<double>(start - wave_start).count(),
            SecondsSince(wave_start)};
        last = Status::OK();
        break;
      }
      last = r.status();
      // Permanent errors fail the query outright — re-running or falling
      // back cannot fix a corrupt or missing object.
      if (!RetryPolicy::IsRetryable(last)) break;
    }
    if (tracer != nullptr) {
      tracer->Annotate(worker_span, "retries",
                       static_cast<uint64_t>(retries[t]));
    }
    if (last.ok()) return last;
    if (!RetryPolicy::IsRetryable(last) || !options.vm_fallback) {
      if (tracer != nullptr) {
        tracer->Annotate(worker_span, "error", last.ToString());
      }
      return last;
    }
    fallback[t] = 1;
    if (tracer != nullptr) {
      tracer->Annotate(worker_span, "fallback", "attempts-exhausted");
    }
    return Status::OK();
  };
  Status st = ThreadPool::Shared()->ParallelFor(
      0, n, /*grain=*/1, [&](size_t t) { return run_primary(t); }, fleet_par);
  if (tracer != nullptr) tracer->SetActiveParent(prior_parent);
  if (!st.ok()) return fail(st);
  out.elapsed_seconds = SecondsSince(wave_start);

  // Graceful degradation: exhausted tasks run on the VM path, inline,
  // serially and in task order, once the wave has drained. Their
  // simulated completion and commit are as if they ran in place.
  for (size_t t = 0; t < n; ++t) {
    if (!fallback[t]) continue;
    const std::string path = TaskPath(stage.prefix, stage.id, t, ".vm");
    uint64_t span = 0;
    if (tracer != nullptr) {
      span = tracer->StartSpan("cf-attempt", workers.ids[t]);
      tracer->Annotate(span, "attempt", "vm-fallback");
    }
    Result<TaskOutcome> r = attempt(t, path, span, /*vm_fallback=*/true);
    if (tracer != nullptr) tracer->SetActiveParent(prior_parent);
    if (!r.ok()) return fail(r.status());
    offer_primary(t, std::move(*r), path);
  }

  // Hedge wave: every task whose primary simulated duration exceeds the
  // quantile-derived cutoff gets one duplicate invocation. The duplicate
  // starts AT the cutoff, so its completion is cutoff + its own duration;
  // the commit table then picks the earlier finisher deterministically.
  std::vector<size_t> hedged;
  double cutoff = 0;
  if (stage.hedge && n >= 2) {
    std::vector<double> durations;
    durations.reserve(n);
    for (size_t t = 0; t < n; ++t) {
      if (!fallback[t]) durations.push_back(primary_ms[t]);
    }
    cutoff = Percentile(durations, kHedgeQuantile) * kHedgeDelayFactor;
    for (size_t t = 0; t < n; ++t) {
      if (!fallback[t] && primary_ms[t] > cutoff) hedged.push_back(t);
    }
  }
  if (!hedged.empty()) {
    auto run_hedge = [&](size_t i) -> Status {
      const size_t t = hedged[i];
      const std::string path = TaskPath(stage.prefix, stage.id, t, ".h");
      uint64_t span = 0;
      if (tracer != nullptr) {
        span = tracer->StartSpan("cf-hedge", stage_span);
        tracer->Annotate(span, "task", static_cast<uint64_t>(t));
      }
      // A failed hedge just loses the race; the primary already won.
      Result<TaskOutcome> r = attempt(t, path, span, /*vm_fallback=*/false);
      if (!r.ok()) return Status::OK();
      const double completion_ms = cutoff + sim_ms(*r, path);
      hedge[t] = std::move(*r);
      hedge_ok[t] = 1;
      commit.Offer(stage.id, static_cast<int>(t),
                   {/*attempt_rank=*/1, completion_ms, path});
      return Status::OK();
    };
    st = ThreadPool::Shared()->ParallelFor(
        0, hedged.size(), /*grain=*/1,
        [&](size_t i) { return run_hedge(i); }, fleet_par);
    if (tracer != nullptr) tracer->SetActiveParent(prior_parent);
    if (!st.ok()) return fail(st);
  }

  // Resolve winners; discard (and delete) losers so their bytes never
  // reach billing and their objects never reach consumers. Counters,
  // events and profile nodes are produced here, on the calling thread in
  // task order, so identical runs report identically.
  OperatorProfile* stage_node =
      options.profile != nullptr
          ? options.profile->AddNode("CfStage[" + stage.name + "]",
                                     stage.parent_node)
          : nullptr;
  out.winners.resize(n);
  int hedges_won = 0;
  int stage_retries = 0;
  int stage_fallbacks = 0;
  uint64_t stage_bytes = 0;
  for (size_t t = 0; t < n; ++t) {
    const ExchangeCommitTable::Claim held =
        commit.Get(stage.id, static_cast<int>(t));
    const bool hedge_wins = held.attempt_rank == 1;
    if (hedge_wins) ++hedges_won;
    // A finished hedge leaves a loser: best-effort delete its object; the
    // query's prefix sweep catches anything a transient fault leaves behind.
    const TaskOutcome& loser = hedge_wins ? primary[t] : hedge[t];
    if (hedge_ok[t] && stage.store != nullptr && !loser.object.empty()) {
      stage.store->Delete(loser.object).ok();
    }
    out.winners[t] = std::move(hedge_wins ? hedge[t] : primary[t]);
    const TaskOutcome& w = out.winners[t];
    if (options.event_log != nullptr) {
      // Exactly ONE commit event per (stage, task) slot regardless of how
      // many attempts raced: emission happens here, never at Offer time.
      Json f = Json::Object();
      f.Set("stage", Json(stage.id));
      f.Set("task", Json(static_cast<int64_t>(t)));
      f.Set("winner", Json(hedge_wins ? "hedge"
                                      : (fallback[t] ? "vm-fallback"
                                                     : "primary")));
      f.Set("completion_ms", Json(held.completion_ms));
      f.Set("retries", Json(retries[t]));
      f.Set("path", Json(held.path));
      options.event_log->Emit("shuffle.task_commit", std::move(f));
    }
    if (fallback[t]) {
      ++exec->workers_fallback;
      ++stage_fallbacks;
      exec->fallback_bytes_scanned += w.fragment.bytes_scanned;
    } else {
      ++exec->workers_used;
    }
    stage_retries += retries[t];
    if (recovered[t]) ++exec->workers_recovered;
    exec->retry_backoff_simulated_ms += backoff_ms[t];
    exec->bytes_scanned += w.fragment.bytes_scanned;
    exec->rows_scanned += w.fragment.rows_scanned;
    exec->shuffle_bytes_written += w.exchange_bytes_written;
    exec->shuffle_bytes_read += w.exchange_bytes_read;
    exec->rf += w.fragment.rf;
    stage_bytes += w.fragment.bytes_scanned;
    out.wall_ms = std::max(out.wall_ms, held.completion_ms);
    if (tracer != nullptr) {
      tracer->Annotate(workers.ids[t], "bytes", w.fragment.bytes_scanned);
    }
    if (stage_node != nullptr) {
      OperatorProfile* node = options.profile->AddNode(
          (fallback[t] ? "CfFallback[" : "CfWorker[") + std::to_string(t) +
              "]",
          stage_node, /*measures_io=*/true);
      node->bytes_scanned = w.fragment.bytes_scanned;
      node->cache_hits = w.fragment.cache_hits;
      node->cache_misses = w.fragment.cache_misses;
      node->rows_out = w.rows;
      node->batches_out =
          w.fragment.table != nullptr ? w.fragment.table->batches().size() : 0;
      node->AddRf(w.fragment.rf);
    }
  }
  exec->worker_retries += stage_retries;
  exec->hedges_fired += static_cast<int>(hedged.size());
  exec->hedges_won += hedges_won;
  if (options.event_log != nullptr) {
    Json f = Json::Object();
    f.Set("stage", Json(stage.id));
    f.Set("name", Json(stage.name));
    f.Set("wall_ms", Json(out.wall_ms));
    f.Set("hedges_fired", Json(static_cast<int64_t>(hedged.size())));
    f.Set("hedges_won", Json(hedges_won));
    f.Set("bytes", Json(static_cast<int64_t>(stage_bytes)));
    options.event_log->Emit("shuffle.stage_done", std::move(f));
  }
  if (tracer != nullptr) {
    tracer->Annotate(stage_span, "wall_ms",
                     static_cast<uint64_t>(std::llround(out.wall_ms)));
    tracer->Annotate(stage_span, "retries",
                     static_cast<uint64_t>(stage_retries));
    tracer->Annotate(stage_span, "fallbacks",
                     static_cast<uint64_t>(stage_fallbacks));
    tracer->Annotate(stage_span, "hedges_fired",
                     static_cast<uint64_t>(hedged.size()));
    tracer->Annotate(stage_span, "hedges_won",
                     static_cast<uint64_t>(hedges_won));
    tracer->Annotate(stage_span, "bytes", stage_bytes);
  }
  return out;
}

Result<TablePtr> ExecuteShuffleDag(const StageGraph& graph, Catalog* catalog,
                                   const CfWorkerOptions& options,
                                   CfExecution* exec) {
  Storage* store = options.intermediate_store != nullptr
                       ? options.intermediate_store
                       : catalog->storage();
  const std::string prefix = options.view_prefix + "/shuffle";
  const int fleet = std::max(options.num_workers, 1);
  const int P =
      options.shuffle.partitions > 0 ? options.shuffle.partitions : fleet;
  const int producers = options.shuffle.producer_tasks > 0
                            ? options.shuffle.producer_tasks
                            : fleet;

  Tracer* tracer = LiveTracer(options);
  uint64_t shuffle_span = 0;
  if (tracer != nullptr) {
    shuffle_span = tracer->StartSpan("cf-shuffle", options.trace_parent);
    tracer->Annotate(shuffle_span, "partitions", static_cast<uint64_t>(P));
    tracer->Annotate(shuffle_span, "producer_tasks",
                     static_cast<uint64_t>(producers));
  }
  ScopedSpan shuffle_scope(tracer, shuffle_span);
  OperatorProfile* shuffle_node =
      options.profile != nullptr ? options.profile->AddNode("CfShuffle", nullptr)
                                 : nullptr;
  auto stage = [&](int id, const char* name, size_t tasks) {
    StageSpec s;
    s.id = id;
    s.name = name;
    s.tasks = tasks;
    s.prefix = prefix;
    s.store = store;
    s.hedge = options.shuffle.hedging;
    s.parent_span = shuffle_span;
    s.parent_node = shuffle_node;
    return s;
  };

  std::vector<const Expr*> left_keys, right_keys;
  for (const auto& k : graph.left_keys) left_keys.push_back(k.get());
  for (const auto& k : graph.right_keys) right_keys.push_back(k.get());

  PIXELS_ASSIGN_OR_RETURN(std::vector<PlanPtr> left_plans,
                          PartitionSubplan(graph.left, producers, *catalog));
  PIXELS_ASSIGN_OR_RETURN(
      std::vector<PlanPtr> right_plans,
      PartitionSubplan(graph.right, producers, *catalog));

  // Producer runner: execute the subtree partition, hash-partition the
  // output by the stage's join keys, write one exchange object typed by
  // the subtree's bound schema (so an empty output is still a typed
  // file). A VM fallback writes its object too: consumers need every
  // partition.
  auto producer = [&](const std::vector<PlanPtr>& plans,
                      const std::vector<const Expr*>& keys) -> TaskRunner {
    return [&](size_t t, const std::string& path, uint64_t attempt_span,
               bool) -> Result<TaskOutcome> {
      TaskOutcome o;
      PIXELS_ASSIGN_OR_RETURN(PlanSchema out,
                              OutputSchema(*plans[t], catalog));
      FileSchema schema;
      for (size_t c = 0; c < out.names.size(); ++c) {
        schema.push_back(ColumnDef{out.names[c], out.types[c]});
      }
      PIXELS_ASSIGN_OR_RETURN(o.fragment,
                              RunFragment(plans[t], catalog, options,
                                          kCfWorkerThreads, attempt_span));
      o.rows = o.fragment.table->num_rows();
      PIXELS_ASSIGN_OR_RETURN(
          std::vector<RowBatchPtr> parts,
          HashPartitionTable(*o.fragment.table, schema, keys, P));
      o.fragment.table.reset();
      PIXELS_ASSIGN_OR_RETURN(o.exchange_bytes_written,
                              WriteExchangeObject(store, path, schema, parts));
      o.object = path;
      o.io_ms = EstimateIoMs(store, o.exchange_bytes_written);
      return o;
    };
  };
  PIXELS_ASSIGN_OR_RETURN(
      StageOutcome left,
      RunStage(options, stage(0, "produce-left", left_plans.size()),
               producer(left_plans, left_keys), exec));
  PIXELS_ASSIGN_OR_RETURN(
      StageOutcome right,
      RunStage(options, stage(1, "produce-right", right_plans.size()),
               producer(right_plans, right_keys), exec));

  // Open every winner object once; consumer tasks share the readers
  // (ReadRowGroup is const and thread-safe). Footer GETs are
  // control-plane reads — their request accounting flows through the
  // storage stats as usual, but they sit outside the per-task simulated
  // durations (read before the join stage starts).
  using Readers = std::vector<std::unique_ptr<PixelsReader>>;
  auto collect = [&](const StageOutcome& producers_out) -> Result<Readers> {
    Readers readers;
    for (const TaskOutcome& w : producers_out.winners) {
      PIXELS_ASSIGN_OR_RETURN(
          auto reader, PixelsReader::Open(store, w.object, IntermediateIo()));
      readers.push_back(std::move(reader));
    }
    return readers;
  };
  PIXELS_ASSIGN_OR_RETURN(Readers left_objs, collect(left));
  PIXELS_ASSIGN_OR_RETURN(Readers right_objs, collect(right));

  // Consumer runner: assemble this partition from every producer object
  // (one combined ranged GET each, none for an empty partition), then
  // run the join + the unary chain above it over the two assembled
  // sides. Its compute is priced on the exchange bytes it ingests, which
  // are never billed as scanned bytes.
  auto consumer = [&](size_t p, const std::string&, uint64_t attempt_span,
                      bool) -> Result<TaskOutcome> {
    TaskOutcome o;
    auto assemble = [&](const Readers& objs) -> Result<TablePtr> {
      auto side = std::make_shared<Table>();
      for (const auto& obj : objs) {
        RowBatchPtr batch;
        if (obj->RowGroupRows(p) == 0) {
          batch = std::make_shared<RowBatch>();
          for (const auto& def : obj->schema()) {
            batch->AddColumn(def.name, MakeVector(def.type));
          }
        } else {
          ScanStats stats;
          PIXELS_ASSIGN_OR_RETURN(batch, obj->ReadRowGroup(p, {}, &stats));
          o.exchange_bytes_read += stats.bytes_scanned;
          o.io_ms += EstimateIoMs(store, stats.bytes_scanned);
        }
        side->AddBatch(std::move(batch));
      }
      return side;
    };
    PIXELS_ASSIGN_OR_RETURN(TablePtr left_side, assemble(left_objs));
    PIXELS_ASSIGN_OR_RETURN(TablePtr right_side, assemble(right_objs));
    PIXELS_ASSIGN_OR_RETURN(
        PlanPtr plan, InstantiateConsumer(graph, std::move(left_side),
                                          std::move(right_side)));
    PIXELS_ASSIGN_OR_RETURN(o.fragment,
                            RunFragment(plan, catalog, options,
                                        kCfWorkerThreads, attempt_span));
    o.rows = o.fragment.table->num_rows();
    return o;
  };
  PIXELS_ASSIGN_OR_RETURN(
      StageOutcome join,
      RunStage(options, stage(2, "join", static_cast<size_t>(P)), consumer,
               exec));

  // DAG timing: both producer stages start at 0; the join stage starts
  // when the slower one drains.
  exec->shuffle_stages = 3;
  exec->shuffle_stage_wall_ms = {left.wall_ms, right.wall_ms, join.wall_ms};
  exec->shuffle_critical_path_ms =
      std::max(left.wall_ms, right.wall_ms) + join.wall_ms;
  if (tracer != nullptr) {
    tracer->Annotate(
        shuffle_span, "critical_path_ms",
        static_cast<uint64_t>(std::llround(exec->shuffle_critical_path_ms)));
    tracer->Annotate(shuffle_span, "hedges_fired",
                     static_cast<uint64_t>(exec->hedges_fired));
    tracer->Annotate(shuffle_span, "hedges_won",
                     static_cast<uint64_t>(exec->hedges_won));
  }
  return join.ConcatTables();
}

}  // namespace pixels
