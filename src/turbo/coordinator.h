// The Coordinator (paper §2): the only long-running component of
// Pixels-Turbo. It manages metadata, admits queries into the VM cluster,
// invokes CF workers to absorb load the cluster cannot serve in time, and
// collects results and statistics.
//
// This paper's modification (§3.1): an API for the query server to check
// the system's load status (query concurrency) and to specify per query
// whether CF acceleration is enabled.
#pragma once

#include <deque>
#include <map>
#include <memory>

#include "catalog/catalog.h"
#include "cloud/cf_service.h"
#include "common/event_log.h"
#include "cloud/vm_cluster.h"
#include "mv/mv_store.h"
#include "storage/buffer_cache.h"
#include "storage/object_store.h"
#include "turbo/cf_worker.h"
#include "turbo/query_task.h"

namespace pixels {

/// Coordinator configuration.
struct CoordinatorParams {
  VmClusterParams vm;
  CfServiceParams cf;
  PricingModel pricing;
  /// Default CF fleet size per accelerated query.
  int default_cf_workers = 8;
  /// Scan throughput per vCPU (bytes/s), used to estimate query work from
  /// bytes and to derive execution durations.
  double bytes_per_vcpu_second = 100e6;
  /// Fixed per-query overhead (planning, result collection).
  SimTime query_overhead = 200 * kMillis;
  /// Byte capacity of the coordinator-owned chunk cache shared by the
  /// top-level plan and the CF worker fleet (0 disables caching). The
  /// cache cuts GETs only; `bytes_scanned` billing is cache-oblivious.
  uint64_t chunk_cache_bytes = 128ULL << 20;
  /// Gap tolerance for coalescing adjacent chunk GETs.
  uint64_t coalesce_gap_bytes = kDefaultCoalesceGapBytes;
  /// Byte capacity of the materialized-view store shared across the
  /// top-level plan, the CF fleet, and concurrent queries. 0 disables MV
  /// reuse (the default: unlike the chunk cache, reuse changes what the
  /// query server bills, so the operator opts in explicitly).
  uint64_t mv_store_bytes = 0;
  /// Path prefix for MV entries spilled as Pixels objects through the
  /// catalog's storage. Empty disables the spill tier.
  std::string mv_spill_prefix;
  /// Attempt budget per CF worker task (incl. the first invocation),
  /// threaded into CfWorkerOptions. Re-invocations back off 200 ms,
  /// doubled per attempt, in simulated time; an exhausted task degrades
  /// to the VM path instead of failing the query.
  int cf_max_worker_attempts = 3;
  /// Multi-stage CF shuffle (DESIGN.md "Multi-stage CF shuffle"). Off —
  /// the default — preserves the single-stage fleet exactly. On, a
  /// pushed-down sub-plan whose core is one equi-join runs as a
  /// scan→shuffle→join DAG of CF stages exchanging hash-partitioned
  /// intermediates through the object store; ineligible shapes silently
  /// keep the single-stage path. Results, bytes_scanned, and bills are
  /// byte-identical either way.
  bool cf_shuffle = false;
  /// Stage fan-out knobs: hash partitions (= join-stage tasks) and
  /// producer tasks per scan stage. 0 = the query's CF fleet size. Every
  /// shuffle stage hedges its stragglers: a task whose simulated duration
  /// exceeds p75 of the stage's durations x 1.5 gets one duplicate; the
  /// first finisher (simulated time) wins the commit, the loser's write
  /// is discarded and un-billed.
  int cf_shuffle_partitions = 0;
  int cf_shuffle_producer_tasks = 0;
  /// Applied to every real execution (VM path and CF workers alike):
  /// hash-join builds publish bloom + min/max filters into probe-side
  /// scans, and pruned row groups shrink the bill. Results are identical
  /// with it off.
  bool runtime_filters = true;
  /// Observability level. kOff (the default) is the zero-overhead path:
  /// no spans are allocated, no profile nodes are created, and every
  /// query executes byte-identically to a build without tracing. kSpans
  /// records the query's span tree (coordinator → queue → plan/MV-lookup
  /// → CF fleet/worker/attempt → storage ops). kFull additionally wraps
  /// every operator with a profiling shim and attaches the EXPLAIN
  /// ANALYZE text report to the QueryRecord.
  TraceLevel trace_level = TraceLevel::kOff;
  /// Use this tracer instead of an owned one (lets the query server share
  /// one trace across both layers). Null + trace_level != kOff = the
  /// coordinator owns its tracer.
  Tracer* tracer = nullptr;
  /// Structured audit event log (common/event_log.h). 0 = disabled (the
  /// zero-overhead default). > 0 = the coordinator owns a bounded log of
  /// that capacity; admission/shuffle decisions append typed JSON events.
  size_t event_log_capacity = 0;
  /// Use this log instead of an owned one (lets the query server share one
  /// audit stream across both layers), same pattern as `tracer`.
  EventLog* event_log = nullptr;
};

/// Coordinator of the hybrid serverless query engine.
class Coordinator {
 public:
  using QueryCallback = std::function<void(const QueryRecord&)>;

  Coordinator(SimClock* clock, Random* rng, CoordinatorParams params,
              std::shared_ptr<Catalog> catalog = nullptr);
  ~Coordinator();

  /// Starts the VM cluster autoscaler.
  void Start();
  /// Stops periodic events so SimClock::RunAll can terminate.
  void Stop();

  /// Submits a query. Dispatch policy (paper §3.1):
  ///  - free VM slot → run in the VM cluster;
  ///  - cluster saturated and spec.cf_enabled → run in CF workers now;
  ///  - otherwise → wait in the coordinator queue for VM capacity.
  /// `on_finish` fires when the query finishes or fails.
  int64_t Submit(QuerySpec spec, QueryCallback on_finish = nullptr);

  const QueryRecord* GetQuery(int64_t id) const;

  /// Reports demand the coordinator cannot see: queries held in the
  /// query server. `relaxed_held` (the relaxed hold queue) counts into
  /// the autoscaling signal so the grace period actually "gives time for
  /// the VM cluster to scale out" (paper §3.2(2)). `deferred_held`
  /// (best-effort holds) is deliberately a SEPARATE signal: it must not
  /// raise Concurrency() — best-effort work gates itself on the low
  /// watermark, so counting its own holds would keep its gate closed
  /// forever — but it blocks scale-in, since an idle-looking cluster
  /// with deferred work pending is about to be used.
  void SetExternalPending(int relaxed_held, int deferred_held = 0);

  /// Recalls a query that is still waiting in the coordinator's VM queue
  /// (admission preemption of best-effort work during Immediate bursts).
  /// On success the query's spec is moved into `spec_out`, its record and
  /// callback are erased as if never submitted, and true is returned.
  /// Running/finished queries and CF-dispatched queries return false.
  bool TryRecall(int64_t id, QuerySpec* spec_out);

  /// Load-status API used by the query server (paper §2). Total demand:
  /// running queries plus every queued/held one (the autoscaling signal).
  double Concurrency() const { return vm_.Concurrency(); }
  bool AboveHighWatermark() const { return vm_.AboveHighWatermark(); }
  bool BelowLowWatermark() const { return vm_.BelowLowWatermark(); }

  /// Concurrency as seen inside the engine (running + coordinator queue),
  /// excluding demand still held in the query server. The server's
  /// relaxed gate compares THIS against the high watermark — gating on
  /// total demand would let the held queries keep their own gate closed.
  double EngineConcurrency() const {
    return static_cast<double>(vm_.running_queries()) +
           static_cast<double>(vm_queue_.size());
  }
  bool EngineAboveHighWatermark() const {
    return EngineConcurrency() >= params_.vm.high_watermark;
  }
  size_t QueueDepth() const { return vm_queue_.size(); }

  VmCluster& vm_cluster() { return vm_; }
  CfService& cf_service() { return cf_; }
  Catalog* catalog() { return catalog_.get(); }
  /// The coordinator-owned materialized-view store (null when disabled).
  MvStore* mv_store() { return mv_store_.get(); }
  const CoordinatorParams& params() const { return params_; }

  /// Cluster-level accrued costs.
  double TotalVmCostUsd() { return vm_.AccruedCostUsd(); }
  double TotalCfCostUsd() const { return cf_.AccruedCostUsd(); }

  /// All records (submission order).
  std::vector<const QueryRecord*> AllQueries() const;

  MetricsRegistry& metrics() { return metrics_; }

  /// The active tracer (owned or external); null when trace_level=off
  /// and no external tracer was supplied.
  Tracer* tracer() { return tracer_; }

  /// The active audit event log (owned or external); null when disabled.
  EventLog* event_log() { return event_log_; }

  /// One merged registry: the coordinator's own counters/series plus the
  /// VM cluster's, the CF service's, and point-in-time gauges for the
  /// chunk cache, the shared footer cache, and the MV store. Feed the
  /// result to ToPrometheusText() for a scrape-shaped export.
  MetricsRegistry MetricsSnapshot();

  /// Forwards the clock to the virtual-time mirrors of the event log, the
  /// tracer and the logger (the tracer's and the logger's only while
  /// tracing). Called at every event boundary on the simulation thread —
  /// the only thread that may touch the SimClock — by the coordinator and
  /// by the query server that shares its clock, so pool threads read a
  /// stamped copy instead of racing the clock.
  void SyncObservability();

 private:
  /// Estimated work for a spec (vCPU-seconds).
  double EstimateWork(const QuerySpec& spec) const;

  void DispatchFromQueue();
  void UpdateBacklog();
  void StartInVm(QueryRecord* rec);
  void StartInCf(QueryRecord* rec);
  /// Runs the SQL through the real engine if requested; updates record.
  void MaybeExecuteReal(QueryRecord* rec, bool via_cf);
  void Finish(QueryRecord* rec);
  /// Folds the catalog storage's retry/backoff counters (when it is an
  /// ObjectStore, possibly under a TracingStorage decorator) into this
  /// registry as deltas since the last publish.
  void PublishStorageMetrics();

  /// The query-server-wide I/O policy handed to every real execution.
  IoOptions QueryIo() const;

  SimClock* clock_;
  Random* rng_;
  CoordinatorParams params_;
  std::shared_ptr<Catalog> catalog_;
  /// Chunk LRU shared across queries, the top-level plan, and CF workers.
  std::unique_ptr<BufferCache> chunk_cache_;
  /// Materialized-view store shared the same way (null when disabled).
  std::unique_ptr<MvStore> mv_store_;
  VmCluster vm_;
  CfService cf_;

  int64_t next_id_ = 1;
  std::map<int64_t, QueryRecord> queries_;
  std::map<int64_t, QueryCallback> callbacks_;
  std::deque<int64_t> vm_queue_;
  int external_pending_ = 0;
  int external_deferred_ = 0;
  /// Last storage-stats snapshot published into `metrics_` (delta base).
  ObjectStoreStats published_storage_;
  MetricsRegistry metrics_;
  /// Tracer owned when params request tracing without supplying one.
  std::unique_ptr<Tracer> owned_tracer_;
  Tracer* tracer_ = nullptr;
  /// Event log owned when params request one without supplying it.
  std::unique_ptr<EventLog> owned_event_log_;
  EventLog* event_log_ = nullptr;
};

}  // namespace pixels
