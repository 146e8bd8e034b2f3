// CF worker execution of pushed-down sub-plans (paper §3.1): the sub-plan
// is partitioned over a fleet of ephemeral workers, each worker's result
// is written to cloud object storage, and the concatenation re-enters the
// top-level plan as a materialized view.
//
// The fleet is a one-stage DAG on the stage scheduler
// (shuffle/stage_scheduler.h). The same RunStage launches, retries, backs
// off, falls back to the VM path and commits its tasks as it does for the
// stages of a multi-stage shuffle, so each policy exists once.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/event_log.h"
#include "common/trace.h"
#include "exec/profile.h"
#include "mv/mv_store.h"
#include "plan/subplan.h"
#include "storage/buffer_cache.h"

namespace pixels {

/// A worker's run on the steady clock, in seconds from its fleet's start.
struct WorkerInterval {
  double start_seconds = 0;
  double end_seconds = 0;
};

/// Outcome of executing a plan with CF pushdown.
struct CfExecution {
  TablePtr result;          // final query result
  TablePtr view;            // the materialized view produced by workers
  int workers_used = 0;     // actual fleet size
  uint64_t bytes_scanned = 0;
  /// Rows of the row groups every scan of the query read (after zone-map
  /// pruning, before filtering), as ExecContext::rows_scanned.
  uint64_t rows_scanned = 0;
  bool pushdown_used = false;
  /// The whole query was answered from the MV store (no scan, no fleet).
  bool mv_full_hit = false;
  /// The pushed-down sub-plan's view came from the MV store; only the
  /// top-level plan executed (no fleet invocation).
  bool mv_subplan_hit = false;
  /// Scan bytes MV hits avoided (full-query or sub-plan granularity).
  uint64_t mv_saved_bytes = 0;
  /// Re-invocations of failed workers across every stage (transient
  /// worker failures absorbed without surfacing to the query).
  int worker_retries = 0;
  /// Partitions that succeeded after at least one re-invocation.
  int workers_recovered = 0;
  /// Partitions that exhausted their re-invocation budget and degraded to
  /// the VM path (executed inline by the coordinator instead of failing
  /// the query). Excluded from `workers_used`.
  int workers_fallback = 0;
  /// Subset of `bytes_scanned` scanned by VM-path fallback partitions
  /// (drives the VM/CF compute-cost split; billing per byte is unchanged).
  uint64_t fallback_bytes_scanned = 0;
  /// Simulated backoff time between worker re-invocations.
  double retry_backoff_simulated_ms = 0;
  /// Per-worker vCPU-seconds estimate derived from bytes (for billing).
  double work_vcpu_seconds = 0;
  /// Measured wall-clock seconds of each worker's sub-plan (index =
  /// partition index; single-stage fleet only).
  std::vector<double> worker_elapsed_seconds;
  /// When each of those workers started and finished, on the steady
  /// clock, in seconds from the start of the fleet (zeros for a worker
  /// that degraded to the VM path). Two overlapping intervals show that
  /// workers really ran at once.
  std::vector<WorkerInterval> worker_intervals;
  /// Measured wall-clock seconds from first worker start to last worker
  /// finish. With a concurrent fleet this can be less than the sum of
  /// worker_elapsed_seconds — the overlap the paper's sub-second CF
  /// absorption story depends on.
  double fleet_elapsed_seconds = 0;
  /// The sub-plan ran as a multi-stage shuffle DAG (cf_shuffle) instead
  /// of the single-stage fleet. Results, bytes_scanned, and bills are
  /// byte-identical either way; only the counters below differ.
  bool shuffle_used = false;
  int shuffle_stages = 0;
  /// Hedged duplicate invocations fired against stragglers / won the
  /// first-writer-wins race (losers' work is discarded and un-billed).
  int hedges_fired = 0;
  int hedges_won = 0;
  /// Exchange-object bytes written by winning producers / combined-read
  /// by consumers. Intermediate traffic — never part of `bytes_scanned`.
  uint64_t shuffle_bytes_written = 0;
  uint64_t shuffle_bytes_read = 0;
  /// Simulated wall per shuffle stage (produce-left, produce-right, join)
  /// and the DAG makespan.
  std::vector<double> shuffle_stage_wall_ms;
  double shuffle_critical_path_ms = 0;
  /// Intermediate objects (worker views and exchange objects) removed by
  /// the end-of-query GC sweep.
  size_t shuffle_objects_swept = 0;
  /// Runtime-filter totals across every context that ran part of this
  /// query (workers, VM fallbacks, top-level/final plan), merged in
  /// partition order so serial and parallel fleets report identically.
  /// `rf.skipped_bytes` is billed scan work the filters genuinely avoided
  /// (row groups never fetched) — `bytes_scanned` above excludes it.
  RfStats rf;
};

/// Shuffle knobs, threaded from CoordinatorParams via CfWorkerOptions.
struct ShuffleOptions {
  /// Master switch (`cf_shuffle`). Off (default) preserves today's
  /// single-stage CF behavior exactly.
  bool enabled = false;
  /// Consumer fan-out: number of hash partitions / stage-J tasks
  /// (0 = the CF fleet size).
  int partitions = 0;
  /// Producer fan-out: tasks per scan stage, clamped by the partitioned
  /// table's file count (0 = the CF fleet size).
  int producer_tasks = 0;
  /// Hedged duplicate invocation of straggler tasks (cutoff: p75 of the
  /// stage's primary durations x 1.5, stage_scheduler.cc).
  bool hedging = true;
  /// Deterministic per-path slow penalty (simulated ms) added to a task
  /// attempt's duration — wire to FaultInjectingStorage::PathSlowMs to
  /// inject whole-task stragglers. Null = no penalty.
  std::function<double(const std::string&)> path_slow_ms;
};

/// Options for CF execution.
struct CfWorkerOptions {
  int num_workers = 8;
  /// Storage for worker-produced materialized views (paper: S3). Null
  /// keeps views in memory (the shuffle then exchanges through the
  /// catalog's storage).
  Storage* intermediate_store = nullptr;
  /// Everything the query writes lives under `view_prefix + "/"`: views
  /// at <view_prefix>/s0/..., exchange objects at <view_prefix>/shuffle/...
  /// The trailing "/" keeps query q1's sweep off q10's objects.
  std::string view_prefix = "intermediate/view";
  /// Scan throughput per vCPU used to convert bytes to work (bytes/s).
  double bytes_per_vcpu_second = 100e6;
  /// How many workers genuinely run concurrently on the shared pool:
  /// 0 = DefaultParallelism(), 1 = serial fleet (today's deterministic
  /// discrete-event-simulation behavior). Each worker runs its own
  /// sub-plan on one thread, mirroring 1-vCPU cloud functions.
  int fleet_parallelism = 0;
  /// I/O policy shared by the top-level plan and every worker: one chunk
  /// cache means a worker's fetch warms the final plan's reads. Billing
  /// is unchanged by caching.
  IoOptions io;
  /// Materialized-view store shared with the coordinator and concurrent
  /// queries (null disables MV reuse). Consulted at two granularities:
  /// the whole plan (hit = no execution at all) and the pushed-down
  /// sub-plan (hit = the worker fleet is skipped and the cached view
  /// re-enters the top-level plan directly).
  MvStore* mv_store = nullptr;
  /// Attempt budget per worker task, including the first invocation
  /// (1 disables re-invocation). A worker whose sub-plan fails with a
  /// retryable error (see RetryPolicy::IsRetryable) is re-invoked from a
  /// fresh ExecContext after a simulated backoff (200 ms, doubled per
  /// further attempt), so only the successful attempt's scanned bytes
  /// are counted — retries never double-bill.
  int max_worker_attempts = 3;
  /// When a task exhausts its attempt budget, execute it on the VM path
  /// (inline, after the stage's primary wave drains) instead of failing
  /// the query. Non-retryable errors always fail the query: a corrupt
  /// object is corrupt on the VM path too.
  bool vm_fallback = true;
  /// Observability (all null/0 = off, the default). With a tracer on,
  /// every stage emits cf-fleet → cf-worker → cf-attempt spans (retry
  /// counts, bytes, fallback reasons) under `trace_parent`. With a
  /// profile, each stage adds a CfStage[<name>] node whose CfWorker[t] /
  /// CfFallback[t] children carry the committed attempt's counters, so
  /// failed and losing attempts never pollute the report, while the
  /// top-level plan profiles per operator.
  Tracer* tracer = nullptr;
  uint64_t trace_parent = 0;
  QueryProfile* profile = nullptr;
  /// Audit event log for stage progress (null = off).
  EventLog* event_log = nullptr;
  /// Runtime filters in every ExecContext this query creates (workers
  /// included, so filters prune billed scan work across the CF seam).
  /// Results are identical on or off.
  bool runtime_filters = true;
  /// Multi-stage shuffle knobs. `shuffle.enabled` off — the default —
  /// preserves single-stage behavior exactly; on, an
  /// eligible sub-plan (single equi-join core) runs as a
  /// scan→shuffle→join DAG with hedged straggler mitigation, and
  /// ineligible shapes silently keep the single-stage fleet.
  ShuffleOptions shuffle;
};

/// Threads each CF worker runs its own sub-plan on: fleet-level
/// concurrency is the unit of scaling, mirroring 1-vCPU cloud functions.
inline constexpr int kCfWorkerThreads = 1;

/// I/O policy for reading a CF intermediate (view or exchange object):
/// it is read once and then deleted, so it bypasses the footer and chunk
/// caches instead of evicting table entries from them.
inline IoOptions IntermediateIo() {
  IoOptions io;
  io.use_footer_cache = false;
  return io;
}

/// The options' tracer when tracing is actually on, else null.
inline Tracer* LiveTracer(const CfWorkerOptions& options) {
  return options.tracer != nullptr && options.tracer->enabled()
             ? options.tracer
             : nullptr;
}

/// What one plan fragment produced: its table and the counters billing,
/// profiles and cache metrics read from its ExecContext.
struct FragmentRun {
  TablePtr table;
  uint64_t bytes_scanned = 0;
  uint64_t rows_scanned = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  RfStats rf;
};

/// Runs `plan` in a fresh ExecContext configured from `options` (I/O
/// policy, tracer, runtime filters) on `parallelism` threads (0 =
/// DefaultParallelism()), with its spans under `trace_parent` and, when
/// `profile` is set, per-operator profile nodes.
Result<FragmentRun> RunFragment(const PlanPtr& plan, Catalog* catalog,
                                const CfWorkerOptions& options,
                                int parallelism, uint64_t trace_parent,
                                QueryProfile* profile = nullptr);

/// Executes `plan` with the sub-plan pushed down to a simulated CF worker
/// fleet. Falls back to plain execution when nothing is pushable. Every
/// object under `options.view_prefix + "/"` is swept before returning, on
/// success and on failure alike.
Result<CfExecution> ExecuteWithCfPushdown(const PlanPtr& plan,
                                          Catalog* catalog,
                                          const CfWorkerOptions& options);

/// Writes a materialized table as a .pxl object and reads it back —
/// the round trip a CF worker result takes through object storage.
Result<TablePtr> RoundTripView(const Table& view, Storage* storage,
                               const std::string& path);

}  // namespace pixels
