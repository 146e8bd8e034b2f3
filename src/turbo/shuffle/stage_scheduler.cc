#include "turbo/shuffle/stage_scheduler.h"

#include <algorithm>
#include <cmath>

#include "cloud/metrics.h"
#include "common/thread_pool.h"
#include "exec/executor.h"
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

/// Counters one task attempt commits if it wins its slot. Failed and
/// losing attempts never reach the ShuffleExecution totals.
struct AttemptOutcome {
  TablePtr table;  // consumer output (null for producers)
  uint64_t bytes_scanned = 0;
  uint64_t exchange_bytes_written = 0;
  uint64_t exchange_bytes_read = 0;
  RfStats rf;
  /// Simulated duration of this attempt (compute + exchange I/O + slow
  /// penalty), excluding retry backoff.
  double sim_ms = 0;
};

using TaskRunner = std::function<Result<AttemptOutcome>(
    size_t task, const std::string& attempt_path, uint64_t attempt_span)>;

struct StageOutcome {
  std::vector<AttemptOutcome> winners;   // per task
  std::vector<double> completion_ms;     // per task, relative to stage start
  double wall_ms = 0;
};

/// Simulated latency of one exchange GET/PUT: the object store's own
/// model when the store is one, else the same S3-like default formula.
double EstimateIoMs(Storage* storage, uint64_t bytes) {
  if (bytes == 0) return 0;
  if (auto* os = dynamic_cast<ObjectStore*>(storage)) {
    return os->EstimateReadLatencyMs(bytes);
  }
  return 15.0 + static_cast<double>(bytes) / (90.0 * 1e6) * 1000.0;
}

double ComputeMs(const ShuffleRunParams& params, uint64_t bytes) {
  return static_cast<double>(bytes) / params.bytes_per_vcpu_second * 1000.0;
}

double SlowMs(const ShuffleRunParams& params, const std::string& path) {
  return params.shuffle.path_slow_ms ? params.shuffle.path_slow_ms(path) : 0;
}

std::string TaskPath(const std::string& prefix, int stage, size_t task,
                     const char* suffix) {
  return prefix + "/s" + std::to_string(stage) + "/t" + std::to_string(task) +
         suffix;
}

/// Runs one stage: primaries with the PR-4 retry/backoff + VM-fallback
/// rules, then the hedge wave against stragglers, then first-writer-wins
/// resolution through the commit table. Counter updates into `exec`
/// happen after the barriers, on the calling thread.
Status RunStage(const ShuffleRunParams& params, int stage_id,
                const std::string& stage_name, size_t num_tasks,
                const TaskRunner& run, bool writes_objects,
                ExchangeCommitTable* commit, Tracer* tracer,
                uint64_t shuffle_span, OperatorProfile* shuffle_node,
                ShuffleExecution* exec, StageOutcome* out) {
  const std::string& prefix = params.shuffle.object_prefix;
  const int budget = std::max(params.max_task_attempts, 1);
  const int fleet_par = params.fleet_parallelism > 0
                            ? params.fleet_parallelism
                            : DefaultParallelism();
  uint64_t stage_span = 0;
  if (tracer != nullptr) {
    stage_span = tracer->StartSpan("cf-stage", shuffle_span);
    tracer->Annotate(stage_span, "stage", stage_name);
    tracer->Annotate(stage_span, "tasks", static_cast<uint64_t>(num_tasks));
  }
  ScopedSpan stage_scope(tracer, stage_span);
  const uint64_t prior_parent = tracer != nullptr ? tracer->ActiveParent() : 0;
  if (params.event_log != nullptr) {
    // Emitted on the calling thread before the parallel section, so the
    // event order is deterministic.
    Json f = Json::Object();
    f.Set("stage", Json(stage_id));
    f.Set("name", Json(stage_name));
    f.Set("tasks", Json(static_cast<int64_t>(num_tasks)));
    params.event_log->Emit("shuffle.stage_start", std::move(f));
  }

  std::vector<AttemptOutcome> primary(num_tasks);
  std::vector<AttemptOutcome> hedge(num_tasks);
  std::vector<double> primary_ms(num_tasks, 0.0);
  std::vector<int> retries(num_tasks, 0);
  std::vector<double> backoff_ms(num_tasks, 0.0);
  std::vector<char> recovered(num_tasks, 0);
  std::vector<char> fallback(num_tasks, 0);
  std::vector<char> hedge_ok(num_tasks, 0);

  auto run_primary = [&](size_t t) -> Status {
    uint64_t task_span = 0;
    if (tracer != nullptr) {
      task_span = tracer->StartSpan("cf-task", stage_span);
      tracer->Annotate(task_span, "task", static_cast<uint64_t>(t));
    }
    ScopedSpan task_scope(tracer, task_span);
    Status last;
    for (int attempt = 1; attempt <= budget; ++attempt) {
      if (attempt > 1) {
        ++retries[t];
        double delay = params.retry_backoff_ms;
        for (int i = 2; i < attempt; ++i) delay *= 2.0;
        backoff_ms[t] += delay;
      }
      const std::string path =
          TaskPath(prefix, stage_id, t, (".a" + std::to_string(attempt)).c_str());
      uint64_t attempt_span = 0;
      if (tracer != nullptr) {
        attempt_span = tracer->StartSpan("cf-task-attempt", task_span);
        tracer->Annotate(attempt_span, "attempt",
                         static_cast<uint64_t>(attempt));
        tracer->SetActiveParent(attempt_span);
      }
      Result<AttemptOutcome> r = run(t, path, attempt_span);
      last = r.ok() ? Status::OK() : r.status();
      if (tracer != nullptr) {
        if (!last.ok()) tracer->Annotate(attempt_span, "error", last.ToString());
        tracer->EndSpan(attempt_span);
      }
      if (last.ok()) {
        if (attempt > 1) recovered[t] = 1;
        primary[t] = std::move(*r);
        primary_ms[t] = primary[t].sim_ms + backoff_ms[t];
        commit->Offer(stage_id, static_cast<int>(t),
                      {/*attempt_rank=*/0, primary_ms[t], path});
        if (tracer != nullptr) {
          tracer->Annotate(task_span, "retries",
                           static_cast<uint64_t>(retries[t]));
        }
        return Status::OK();
      }
      if (!RetryPolicy::IsRetryable(last)) return last;
    }
    if (!params.vm_fallback) return last;
    // Budget exhausted: degrade this task to the VM path. It still has to
    // produce its exchange object (consumers need the partitions), so the
    // same runner executes inline under a ".vm" attempt path.
    const std::string vm_path = TaskPath(prefix, stage_id, t, ".vm");
    uint64_t vm_span = 0;
    if (tracer != nullptr) {
      vm_span = tracer->StartSpan("cf-task-attempt", task_span);
      tracer->Annotate(vm_span, "attempt", "vm-fallback");
      tracer->SetActiveParent(vm_span);
    }
    Result<AttemptOutcome> r = run(t, vm_path, vm_span);
    if (tracer != nullptr) {
      if (!r.ok()) tracer->Annotate(vm_span, "error", r.status().ToString());
      tracer->EndSpan(vm_span);
    }
    PIXELS_RETURN_NOT_OK(r.status());
    fallback[t] = 1;
    primary[t] = std::move(*r);
    primary_ms[t] = primary[t].sim_ms + backoff_ms[t];
    commit->Offer(stage_id, static_cast<int>(t),
                  {/*attempt_rank=*/0, primary_ms[t], vm_path});
    if (tracer != nullptr) {
      tracer->Annotate(task_span, "fallback", "attempts-exhausted");
    }
    return Status::OK();
  };
  Status st = ThreadPool::Shared()->ParallelFor(
      0, num_tasks, /*grain=*/1, [&](size_t t) { return run_primary(t); },
      fleet_par);
  if (tracer != nullptr) tracer->SetActiveParent(prior_parent);
  PIXELS_RETURN_NOT_OK(st);

  // Hedge wave: every task whose primary simulated duration exceeds the
  // quantile-derived cutoff gets one duplicate invocation. The duplicate
  // starts AT the cutoff, so its completion is cutoff + its own duration;
  // the commit table then picks the earlier finisher deterministically.
  std::vector<size_t> hedged;
  double cutoff = 0;
  if (params.shuffle.hedging && num_tasks >= 2) {
    std::vector<double> durations;
    durations.reserve(num_tasks);
    for (size_t t = 0; t < num_tasks; ++t) {
      if (!fallback[t]) durations.push_back(primary_ms[t]);
    }
    cutoff = Percentile(durations, params.shuffle.hedge_quantile) *
             params.shuffle.hedge_delay_factor;
    for (size_t t = 0; t < num_tasks; ++t) {
      if (!fallback[t] && primary_ms[t] > cutoff) hedged.push_back(t);
    }
  }
  if (!hedged.empty()) {
    auto run_hedge = [&](size_t i) -> Status {
      const size_t t = hedged[i];
      const std::string path = TaskPath(prefix, stage_id, t, ".h");
      uint64_t hedge_span = 0;
      if (tracer != nullptr) {
        hedge_span = tracer->StartSpan("cf-task-hedge", stage_span);
        tracer->Annotate(hedge_span, "task", static_cast<uint64_t>(t));
        tracer->SetActiveParent(hedge_span);
      }
      ScopedSpan scope(tracer, hedge_span);
      Result<AttemptOutcome> r = run(t, path, hedge_span);
      if (!r.ok()) {
        // A failed hedge just loses the race; the primary already won.
        if (tracer != nullptr) {
          tracer->Annotate(hedge_span, "error", r.status().ToString());
        }
        return Status::OK();
      }
      hedge[t] = std::move(*r);
      hedge_ok[t] = 1;
      commit->Offer(stage_id, static_cast<int>(t),
                    {/*attempt_rank=*/1, cutoff + hedge[t].sim_ms, path});
      return Status::OK();
    };
    st = ThreadPool::Shared()->ParallelFor(
        0, hedged.size(), /*grain=*/1,
        [&](size_t i) { return run_hedge(i); }, fleet_par);
    if (tracer != nullptr) tracer->SetActiveParent(prior_parent);
    PIXELS_RETURN_NOT_OK(st);
  }

  // Resolve winners; discard (and delete) losers so their bytes never
  // reach billing and their objects never reach consumers.
  out->winners.resize(num_tasks);
  out->completion_ms.assign(num_tasks, 0.0);
  int hedges_won = 0;
  for (size_t t = 0; t < num_tasks; ++t) {
    const ExchangeCommitTable::Claim held =
        commit->Get(stage_id, static_cast<int>(t));
    const bool hedge_wins = held.attempt_rank == 1;
    out->winners[t] = hedge_wins ? std::move(hedge[t]) : std::move(primary[t]);
    out->completion_ms[t] = held.completion_ms;
    if (hedge_wins) ++hedges_won;
    if (params.event_log != nullptr) {
      // Exactly ONE commit event per (stage, task) slot regardless of how
      // many attempts raced: emission happens here, in the post-barrier
      // resolution loop in task order, never at Offer time.
      Json f = Json::Object();
      f.Set("stage", Json(stage_id));
      f.Set("task", Json(static_cast<int64_t>(t)));
      f.Set("winner", Json(hedge_wins ? "hedge"
                                      : (fallback[t] ? "vm-fallback"
                                                     : "primary")));
      f.Set("completion_ms", Json(held.completion_ms));
      f.Set("retries", Json(retries[t]));
      f.Set("path", Json(held.path));
      params.event_log->Emit("shuffle.task_commit", std::move(f));
    }
    if (writes_objects) {
      // Best-effort delete of the losing attempt's object; the final
      // prefix sweep catches anything a transient fault leaves behind.
      if (hedge_wins) {
        params.store->Delete(TaskPath(prefix, stage_id, t, ".a1")).ok();
      } else if (hedge_ok[t]) {
        params.store->Delete(TaskPath(prefix, stage_id, t, ".h")).ok();
      }
    }
    out->wall_ms = std::max(out->wall_ms, held.completion_ms);
  }

  // Merge stage counters (winners only) into the execution totals.
  uint64_t stage_scanned = 0;
  for (size_t t = 0; t < num_tasks; ++t) {
    const AttemptOutcome& w = out->winners[t];
    stage_scanned += w.bytes_scanned;
    if (fallback[t]) {
      ++exec->tasks_fallback;
      exec->fallback_bytes_scanned += w.bytes_scanned;
    } else {
      ++exec->tasks;
    }
    exec->task_retries += retries[t];
    if (recovered[t]) ++exec->tasks_recovered;
    exec->retry_backoff_simulated_ms += backoff_ms[t];
    exec->bytes_scanned += w.bytes_scanned;
    exec->exchange_bytes_written += w.exchange_bytes_written;
    exec->exchange_bytes_read += w.exchange_bytes_read;
    exec->rf += w.rf;
  }
  exec->hedges_fired += static_cast<int>(hedged.size());
  exec->hedges_won += hedges_won;
  ++exec->stages;
  exec->stage_wall_ms.push_back(out->wall_ms);
  if (params.event_log != nullptr) {
    Json f = Json::Object();
    f.Set("stage", Json(stage_id));
    f.Set("name", Json(stage_name));
    f.Set("wall_ms", Json(out->wall_ms));
    f.Set("hedges_fired", Json(static_cast<int64_t>(hedged.size())));
    f.Set("hedges_won", Json(hedges_won));
    f.Set("bytes", Json(static_cast<int64_t>(stage_scanned)));
    params.event_log->Emit("shuffle.stage_done", std::move(f));
  }
  if (tracer != nullptr) {
    tracer->Annotate(stage_span, "wall_ms",
                     static_cast<uint64_t>(std::llround(out->wall_ms)));
    tracer->Annotate(stage_span, "hedges_fired",
                     static_cast<uint64_t>(hedged.size()));
    tracer->Annotate(stage_span, "hedges_won",
                     static_cast<uint64_t>(hedges_won));
    tracer->Annotate(stage_span, "bytes", stage_scanned);
  }
  if (shuffle_node != nullptr && params.profile != nullptr) {
    OperatorProfile* node = params.profile->AddNode(
        "CfStage[" + stage_name + "]", shuffle_node, /*measures_io=*/true);
    node->bytes_scanned = stage_scanned;
    node->rows_out = 0;
    node->batches_out = 0;
  }
  return Status::OK();
}

}  // namespace

Result<ShuffleExecution> ExecuteShuffleDag(const StageGraph& graph,
                                           const ShuffleRunParams& params) {
  if (!graph.viable) {
    return Status::FailedPrecondition("stage graph is not viable: " +
                                      graph.reason);
  }
  if (params.catalog == nullptr || params.store == nullptr) {
    return Status::InvalidArgument("shuffle needs a catalog and a store");
  }
  if (params.shuffle.object_prefix.empty()) {
    return Status::InvalidArgument("shuffle needs an object prefix");
  }
  const int P = params.shuffle.partitions > 0 ? params.shuffle.partitions
                                              : std::max(params.num_workers, 1);
  const int producers = params.shuffle.producer_tasks > 0
                            ? params.shuffle.producer_tasks
                            : std::max(params.num_workers, 1);

  Tracer* tracer =
      params.tracer != nullptr && params.tracer->enabled() ? params.tracer
                                                           : nullptr;
  uint64_t shuffle_span = 0;
  if (tracer != nullptr) {
    shuffle_span = tracer->StartSpan("cf-shuffle", params.trace_parent);
    tracer->Annotate(shuffle_span, "partitions", static_cast<uint64_t>(P));
    tracer->Annotate(shuffle_span, "producer_tasks",
                     static_cast<uint64_t>(producers));
  }
  ScopedSpan shuffle_scope(tracer, shuffle_span);
  OperatorProfile* shuffle_node =
      params.profile != nullptr ? params.profile->AddNode("CfShuffle", nullptr)
                                : nullptr;

  std::vector<const Expr*> left_keys, right_keys;
  for (const auto& k : graph.left_keys) left_keys.push_back(k.get());
  for (const auto& k : graph.right_keys) right_keys.push_back(k.get());

  PIXELS_ASSIGN_OR_RETURN(
      std::vector<PlanPtr> left_plans,
      PartitionSubplan(graph.left, producers, *params.catalog));
  PIXELS_ASSIGN_OR_RETURN(
      std::vector<PlanPtr> right_plans,
      PartitionSubplan(graph.right, producers, *params.catalog));

  ShuffleExecution exec;
  ExchangeCommitTable commit;

  // Producer runner: execute the subtree partition, hash-partition the
  // output by the stage's join keys, write one exchange object.
  auto make_producer = [&params, P](const std::vector<PlanPtr>* plans,
                                    std::vector<const Expr*> keys) {
    return [&params, P, plans, keys](
               size_t t, const std::string& path,
               uint64_t attempt_span) -> Result<AttemptOutcome> {
      ExecContext ctx;
      ctx.catalog = params.catalog;
      ctx.parallelism = std::max(params.worker_parallelism, 1);
      ctx.io = params.io;
      ctx.tracer = params.tracer;
      ctx.trace_parent = attempt_span;
      ctx.runtime_filters = params.runtime_filters;
      PIXELS_ASSIGN_OR_RETURN(TablePtr table, ExecutePlan((*plans)[t], &ctx));
      PIXELS_ASSIGN_OR_RETURN(std::vector<TablePtr> parts,
                              HashPartitionTable(*table, keys, P));
      PIXELS_ASSIGN_OR_RETURN(
          ExchangeWriteInfo info,
          WriteExchangeObject(params.store, path, parts,
                              params.shuffle.forced_encoding));
      AttemptOutcome o;
      o.bytes_scanned = ctx.bytes_scanned;
      o.exchange_bytes_written = info.bytes_written;
      o.rf = RfStats::From(ctx);
      o.sim_ms = ComputeMs(params, o.bytes_scanned) +
                 EstimateIoMs(params.store, info.bytes_written) +
                 SlowMs(params, path);
      return o;
    };
  };

  StageOutcome left_stage, right_stage;
  PIXELS_RETURN_NOT_OK(RunStage(
      params, /*stage_id=*/0, "produce-left", left_plans.size(),
      make_producer(&left_plans, left_keys), /*writes_objects=*/true, &commit,
      tracer, shuffle_span, shuffle_node, &exec, &left_stage));
  PIXELS_RETURN_NOT_OK(RunStage(
      params, /*stage_id=*/1, "produce-right", right_plans.size(),
      make_producer(&right_plans, right_keys), /*writes_objects=*/true,
      &commit, tracer, shuffle_span, shuffle_node, &exec, &right_stage));

  // Read every winner object's footer once; consumer tasks share them.
  // Footer GETs are control-plane reads — their request accounting flows
  // through the storage stats as usual, but they sit outside the per-task
  // simulated durations (the scheduler reads them before stage J starts).
  struct ProducerObject {
    std::string path;
    ExchangeFooter footer;
  };
  auto collect = [&](int stage_id, size_t n,
                     std::vector<ProducerObject>* objs) -> Status {
    for (size_t t = 0; t < n; ++t) {
      ProducerObject po;
      po.path = commit.Get(stage_id, static_cast<int>(t)).path;
      PIXELS_ASSIGN_OR_RETURN(po.footer,
                              ReadExchangeFooter(params.store, po.path));
      objs->push_back(std::move(po));
    }
    return Status::OK();
  };
  std::vector<ProducerObject> left_objs, right_objs;
  PIXELS_RETURN_NOT_OK(collect(0, left_plans.size(), &left_objs));
  PIXELS_RETURN_NOT_OK(collect(1, right_plans.size(), &right_objs));

  // Consumer runner: assemble this partition from every producer object
  // (one combined ranged GET each), then run the join + the unary chain
  // above it over the two assembled sides.
  auto consumer = [&](size_t p, const std::string& path,
                      uint64_t attempt_span) -> Result<AttemptOutcome> {
    AttemptOutcome o;
    double io_ms = 0;
    auto assemble = [&](const std::vector<ProducerObject>& objs)
        -> Result<TablePtr> {
      auto side = std::make_shared<Table>();
      for (const auto& obj : objs) {
        if (obj.footer.schema.empty()) continue;  // empty producer output
        uint64_t got = 0;
        PIXELS_ASSIGN_OR_RETURN(
            RowBatchPtr batch,
            ReadExchangePartition(params.store, obj.path, obj.footer, p, &got));
        o.exchange_bytes_read += got;
        io_ms += EstimateIoMs(params.store, got);
        side->AddBatch(std::move(batch));
      }
      return side;
    };
    PIXELS_ASSIGN_OR_RETURN(TablePtr left_side, assemble(left_objs));
    PIXELS_ASSIGN_OR_RETURN(TablePtr right_side, assemble(right_objs));
    PIXELS_ASSIGN_OR_RETURN(
        PlanPtr plan,
        InstantiateConsumer(graph, std::move(left_side),
                            std::move(right_side)));
    ExecContext ctx;
    ctx.catalog = params.catalog;
    ctx.parallelism = std::max(params.worker_parallelism, 1);
    ctx.io = params.io;
    ctx.tracer = params.tracer;
    ctx.trace_parent = attempt_span;
    ctx.runtime_filters = params.runtime_filters;
    PIXELS_ASSIGN_OR_RETURN(o.table, ExecutePlan(plan, &ctx));
    o.bytes_scanned = ctx.bytes_scanned;  // 0: consumers scan no base table
    o.rf = RfStats::From(ctx);
    // Compute proxy: consumers do join/agg work proportional to the
    // exchange bytes they ingest, priced at the same vCPU throughput.
    o.sim_ms = ComputeMs(params, o.exchange_bytes_read) + io_ms +
               SlowMs(params, path);
    return o;
  };
  StageOutcome join_stage;
  PIXELS_RETURN_NOT_OK(RunStage(params, /*stage_id=*/2, "join",
                                static_cast<size_t>(P), consumer,
                                /*writes_objects=*/false, &commit, tracer,
                                shuffle_span, shuffle_node, &exec,
                                &join_stage));

  // The view is the stage-J outputs concatenated in partition order —
  // deterministic regardless of fleet interleaving or hedge outcomes.
  auto view = std::make_shared<Table>();
  for (const AttemptOutcome& w : join_stage.winners) {
    if (w.table == nullptr) continue;
    for (const auto& batch : w.table->batches()) view->AddBatch(batch);
  }
  exec.view = std::move(view);

  // DAG timing: both producer stages start at 0; stage J starts when the
  // slower one drains.
  const double produce_ms = std::max(left_stage.wall_ms, right_stage.wall_ms);
  exec.critical_path_ms = produce_ms + join_stage.wall_ms;
  exec.final_stage_task_ms = join_stage.completion_ms;

  // GC: the intermediates served their purpose; sweep the whole prefix
  // (winner and any leaked loser objects alike).
  exec.objects_swept =
      SweepExchangePrefix(params.store, params.shuffle.object_prefix);
  if (tracer != nullptr) {
    tracer->Annotate(shuffle_span, "critical_path_ms",
                     static_cast<uint64_t>(std::llround(exec.critical_path_ms)));
    tracer->Annotate(shuffle_span, "hedges_fired",
                     static_cast<uint64_t>(exec.hedges_fired));
    tracer->Annotate(shuffle_span, "hedges_won",
                     static_cast<uint64_t>(exec.hedges_won));
    tracer->Annotate(shuffle_span, "swept",
                     static_cast<uint64_t>(exec.objects_swept));
  }
  return exec;
}

}  // namespace pixels
