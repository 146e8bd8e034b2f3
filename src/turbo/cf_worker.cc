#include "turbo/cf_worker.h"

#include "exec/executor.h"
#include "format/writer.h"
#include "plan/fingerprint.h"
#include "turbo/shuffle/exchange.h"
#include "turbo/shuffle/stage_scheduler.h"

namespace pixels {

Result<TablePtr> RoundTripView(const Table& view, Storage* storage,
                               const std::string& path) {
  // Derive the file schema from the view's first batch.
  if (view.batches().empty()) {
    // Nothing to persist; an empty table round-trips to itself.
    return std::make_shared<Table>();
  }
  const RowBatch& first = *view.batches()[0];
  FileSchema schema;
  for (size_t c = 0; c < first.num_columns(); ++c) {
    schema.push_back(ColumnDef{first.name(c), first.column(c)->type()});
  }
  PixelsWriter writer(schema);
  for (const auto& batch : view.batches()) {
    PIXELS_RETURN_NOT_OK(writer.Append(*batch));
  }
  PIXELS_RETURN_NOT_OK(writer.Finish(storage, path));

  PIXELS_ASSIGN_OR_RETURN(auto reader,
                          PixelsReader::Open(storage, path, IntermediateIo()));
  auto out = std::make_shared<Table>();
  for (size_t g = 0; g < reader->NumRowGroups(); ++g) {
    PIXELS_ASSIGN_OR_RETURN(RowBatchPtr batch, reader->ReadRowGroup(g, {}));
    out->AddBatch(std::move(batch));
  }
  return out;
}

namespace {

/// Fingerprint + version pins snapshotted BEFORE a plan executes (or is
/// partitioned — partitioning bakes the catalog's file list into the
/// worker plans). Scans resolve their file lists at execution time, so a
/// catalog mutation racing the query bumps a version past this snapshot
/// and the inserted entry conservatively fails its next validation.
/// Snapshotting after execution instead would stamp a stale result with
/// the new epoch and silently poison the store.
struct MvInsertSnapshot {
  bool valid = false;
  PlanFingerprint fp;
  std::vector<TableVersionPin> pins;
};

MvInsertSnapshot SnapshotMvInsert(const MvStore* store,
                                  const LogicalPlan& plan,
                                  const Catalog& catalog) {
  MvInsertSnapshot snap;
  if (store == nullptr) return snap;
  auto fp = FingerprintPlan(plan);
  if (!fp.ok()) return snap;
  auto pins = CollectTableVersionPins(plan, catalog);
  if (!pins.ok()) return snap;
  snap.valid = true;
  snap.fp = *fp;
  snap.pins = std::move(*pins);
  return snap;
}

/// Best-effort insert of an executed plan's result under its snapshot.
void CommitMvInsert(MvStore* store, MvInsertSnapshot snap,
                    const TablePtr& result, uint64_t rebuild_scan_bytes) {
  if (store == nullptr || !snap.valid || result == nullptr) return;
  store->Insert(snap.fp, result, rebuild_scan_bytes, std::move(snap.pins));
}

/// Emits an mv-lookup span around one store probe.
void TraceMvLookup(Tracer* tracer, uint64_t parent, const char* granularity,
                   bool hit, uint64_t saved_bytes) {
  if (tracer == nullptr) return;
  const uint64_t span = tracer->StartSpan("mv-lookup", parent);
  tracer->Annotate(span, "granularity", granularity);
  tracer->Annotate(span, "hit", hit ? "true" : "false");
  if (hit) tracer->Annotate(span, "saved_bytes", saved_bytes);
  tracer->EndSpan(span);
}

}  // namespace

Result<FragmentRun> RunFragment(const PlanPtr& plan, Catalog* catalog,
                                const CfWorkerOptions& options,
                                int parallelism, uint64_t trace_parent,
                                QueryProfile* profile) {
  ExecContext ctx;
  ctx.catalog = catalog;
  ctx.parallelism = parallelism;
  ctx.io = options.io;
  ctx.tracer = options.tracer;
  ctx.trace_parent = trace_parent;
  ctx.profile = profile;
  ctx.runtime_filters = options.runtime_filters;
  FragmentRun out;
  PIXELS_ASSIGN_OR_RETURN(out.table, ExecutePlan(plan, &ctx));
  out.bytes_scanned = ctx.bytes_scanned;
  out.rows_scanned = ctx.rows_scanned;
  out.cache_hits = ctx.cache_hits;
  out.cache_misses = ctx.cache_misses;
  out.rf = RfStats::From(ctx);
  return out;
}

namespace {

Result<CfExecution> RunWithCfPushdown(const PlanPtr& plan, Catalog* catalog,
                                      const CfWorkerOptions& options) {
  CfExecution out;
  Tracer* tracer = LiveTracer(options);

  // Full-query MV reuse first: a hit answers the query without splitting,
  // scanning, or invoking a single CF worker.
  if (options.mv_store != nullptr) {
    auto fp = FingerprintPlan(*plan);
    if (fp.ok()) {
      auto hit = options.mv_store->Lookup(*fp, *catalog);
      TraceMvLookup(tracer, options.trace_parent, "full-query",
                    hit.has_value(), hit ? hit->saved_scan_bytes : 0);
      if (hit) {
        out.result = hit->table;
        out.mv_full_hit = true;
        out.mv_saved_bytes = hit->saved_scan_bytes;
        return out;
      }
    }
  }

  PIXELS_ASSIGN_OR_RETURN(SubPlanSplit split, SplitForCf(plan));

  // Runs the top-level plan and adds its counters to `out`.
  auto run_top = [&](const PlanPtr& p, uint64_t trace_parent) -> Status {
    PIXELS_ASSIGN_OR_RETURN(FragmentRun top,
                            RunFragment(p, catalog, options, /*parallelism=*/0,
                                        trace_parent, options.profile));
    out.result = std::move(top.table);
    out.bytes_scanned += top.bytes_scanned;
    out.rows_scanned += top.rows_scanned;
    out.rf += top.rf;
    return Status::OK();
  };
  // The vCPU-seconds estimate covers what ran before the top-level merge.
  auto estimate_work = [&] {
    out.work_vcpu_seconds = static_cast<double>(out.bytes_scanned) /
                            options.bytes_per_vcpu_second;
  };

  if (split.subplan == nullptr) {
    // Nothing heavy to push: run the plan as-is.
    MvInsertSnapshot snap = SnapshotMvInsert(options.mv_store, *plan, *catalog);
    PIXELS_RETURN_NOT_OK(run_top(plan, options.trace_parent));
    estimate_work();
    CommitMvInsert(options.mv_store, std::move(snap), out.result,
                   out.bytes_scanned);
    return out;
  }

  // Sub-plan MV reuse: the paper's materialized-view seam is exactly the
  // store's unit of sharing, so a repeat of the heavy sub-plan (even
  // under a different top-level shape) skips the whole worker fleet.
  if (options.mv_store != nullptr) {
    auto sub_fp = FingerprintPlan(*split.subplan);
    if (sub_fp.ok()) {
      auto hit = options.mv_store->Lookup(*sub_fp, *catalog);
      TraceMvLookup(tracer, options.trace_parent, "subplan",
                    hit.has_value(), hit ? hit->saved_scan_bytes : 0);
      if (hit) {
        out.pushdown_used = true;
        out.mv_subplan_hit = true;
        out.mv_saved_bytes = hit->saved_scan_bytes;
        out.view = hit->table;
        PIXELS_RETURN_NOT_OK(InjectView(split.final_plan, out.view));
        PIXELS_RETURN_NOT_OK(run_top(split.final_plan, options.trace_parent));
        estimate_work();
        return out;
      }
    }
  }

  // Snapshot both insert targets now, before partitioning reads the
  // catalog's file lists and before any worker scans.
  MvInsertSnapshot sub_snap =
      SnapshotMvInsert(options.mv_store, *split.subplan, *catalog);
  MvInsertSnapshot full_snap =
      SnapshotMvInsert(options.mv_store, *plan, *catalog);

  // Multi-stage shuffle path (cf_shuffle): an eligible sub-plan runs as a
  // scan→shuffle→join DAG of CF stages exchanging hash-partitioned data
  // through the object store, with hedged duplicates against stragglers.
  // Ineligible shapes (no join, non-equi, nested joins) silently keep the
  // single-stage fleet.
  StageGraph graph;
  if (options.shuffle.enabled) {
    graph = BuildStageGraph(split.subplan);
    if (!graph.viable && tracer != nullptr) {
      const uint64_t skip =
          tracer->StartSpan("cf-shuffle-skip", options.trace_parent);
      tracer->Annotate(skip, "reason", graph.reason);
      tracer->EndSpan(skip);
    }
  }
  TablePtr view;
  out.pushdown_used = true;
  if (graph.viable) {
    out.shuffle_used = true;
    PIXELS_ASSIGN_OR_RETURN(view,
                            ExecuteShuffleDag(graph, catalog, options, &out));
  } else {
    // The single-stage fleet: a one-stage DAG whose task t executes the
    // sub-plan's t-th partition. A CF attempt's result lands in object
    // storage (paper: S3) and the top-level plan reads it back; the VM
    // fallback keeps its result in memory.
    PIXELS_ASSIGN_OR_RETURN(
        std::vector<PlanPtr> worker_plans,
        PartitionSubplan(split.subplan, std::max(options.num_workers, 1),
                         *catalog));
    auto run_worker = [&](size_t t, const std::string& path,
                          uint64_t attempt_span,
                          bool vm_fallback) -> Result<TaskOutcome> {
      TaskOutcome o;
      PIXELS_ASSIGN_OR_RETURN(
          o.fragment,
          RunFragment(worker_plans[t], catalog, options,
                      vm_fallback ? 0 : kCfWorkerThreads, attempt_span));
      if (!vm_fallback && options.intermediate_store != nullptr) {
        PIXELS_ASSIGN_OR_RETURN(
            o.fragment.table,
            RoundTripView(*o.fragment.table, options.intermediate_store, path));
        o.object = path;
      }
      o.rows = o.fragment.table->num_rows();
      return o;
    };
    StageSpec fleet;
    fleet.name = "fleet";
    fleet.tasks = worker_plans.size();
    fleet.prefix = options.view_prefix;
    fleet.store = options.intermediate_store;
    fleet.parent_span = options.trace_parent;
    PIXELS_ASSIGN_OR_RETURN(StageOutcome stage,
                            RunStage(options, fleet, run_worker, &out));
    out.worker_elapsed_seconds = std::move(stage.task_elapsed_seconds);
    out.worker_intervals = std::move(stage.task_intervals);
    out.fleet_elapsed_seconds = stage.elapsed_seconds;
    view = stage.ConcatTables();
  }
  out.view = view;
  estimate_work();

  // The worker-produced view is the shareable artifact: cache it keyed by
  // the unpartitioned sub-plan so future queries skip the fleet.
  CommitMvInsert(options.mv_store, std::move(sub_snap), view,
                 out.bytes_scanned);

  // Inject the materialized view and run the top-level plan.
  PIXELS_RETURN_NOT_OK(InjectView(split.final_plan, view));
  uint64_t final_span = options.trace_parent;
  const uint64_t prior_parent = tracer != nullptr ? tracer->ActiveParent() : 0;
  if (tracer != nullptr) {
    final_span = tracer->StartSpan("cf-final", options.trace_parent);
    tracer->SetActiveParent(final_span);
  }
  const uint64_t sub_bytes = out.bytes_scanned;
  Status final_status = run_top(split.final_plan, final_span);
  if (tracer != nullptr) {
    if (!final_status.ok()) {
      tracer->Annotate(final_span, "error", final_status.ToString());
    }
    tracer->Annotate(final_span, "bytes", out.bytes_scanned - sub_bytes);
    tracer->EndSpan(final_span);
    tracer->SetActiveParent(prior_parent);
  }
  PIXELS_RETURN_NOT_OK(final_status);

  // Also cache the full-query result (keyed by the original plan, which
  // still has no inlined view) so an identical repeat skips even the
  // top-level merge.
  CommitMvInsert(options.mv_store, std::move(full_snap), out.result,
                 out.bytes_scanned);
  return out;
}

}  // namespace

Result<CfExecution> ExecuteWithCfPushdown(const PlanPtr& plan,
                                          Catalog* catalog,
                                          const CfWorkerOptions& options) {
  Result<CfExecution> out = RunWithCfPushdown(plan, catalog, options);
  // One sweep per query, whichever way it ended: views and exchange
  // objects alike live under the query's prefix.
  Storage* store = options.intermediate_store != nullptr
                       ? options.intermediate_store
                       : catalog->storage();
  const size_t swept = SweepExchangePrefix(store, options.view_prefix + "/");
  PIXELS_RETURN_NOT_OK(out.status());
  out->shuffle_objects_swept = swept;
  return out;
}

}  // namespace pixels
