#include "turbo/coordinator.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "exec/executor.h"
#include "exec/profile.h"
#include "format/footer_cache.h"
#include "plan/binder.h"
#include "plan/optimizer.h"
#include "storage/fault_injection.h"
#include "storage/object_store.h"
#include "storage/retrying_storage.h"
#include "storage/tracing_storage.h"

namespace pixels {

namespace {

/// Copies one execution's runtime-filter totals into its record.
void SetRecordRf(QueryRecord* rec, const RfStats& rf) {
  rec->rf_probe_rows = rf.probe_rows;
  rec->rf_pruned_rows = rf.pruned_rows;
  rec->rf_pruned_row_groups = rf.pruned_row_groups;
  rec->rf_skipped_bytes = rf.skipped_bytes;
}

}  // namespace

Coordinator::Coordinator(SimClock* clock, Random* rng,
                         CoordinatorParams params,
                         std::shared_ptr<Catalog> catalog)
    : clock_(clock),
      rng_(rng),
      params_(params),
      catalog_(std::move(catalog)),
      vm_(clock, rng, params.vm, params.pricing),
      cf_(clock, rng, params.cf, params.pricing) {
  if (params_.chunk_cache_bytes > 0) {
    chunk_cache_ = std::make_unique<BufferCache>(params_.chunk_cache_bytes);
  }
  if (params_.mv_store_bytes > 0) {
    MvStoreOptions mv;
    mv.capacity_bytes = params_.mv_store_bytes;
    if (!params_.mv_spill_prefix.empty() && catalog_ != nullptr) {
      mv.spill_storage = catalog_->storage();
      mv.spill_prefix = params_.mv_spill_prefix;
    }
    mv_store_ = std::make_unique<MvStore>(std::move(mv));
  }
  vm_.SetCapacityAvailableCallback([this] { DispatchFromQueue(); });
  if (params_.tracer != nullptr) {
    tracer_ = params_.tracer;
    if (params_.trace_level != TraceLevel::kOff) {
      tracer_->set_level(params_.trace_level);
    }
  } else if (params_.trace_level != TraceLevel::kOff) {
    owned_tracer_ = std::make_unique<Tracer>(params_.trace_level);
    tracer_ = owned_tracer_.get();
  }
  if (tracer_ != nullptr && tracer_->enabled()) {
    // While tracing, log lines carry virtual time so they correlate with
    // span timestamps.
    RegisterLogClock(clock_);
  }
  if (params_.event_log != nullptr) {
    event_log_ = params_.event_log;
  } else if (params_.event_log_capacity > 0) {
    owned_event_log_ = std::make_unique<EventLog>(params_.event_log_capacity);
    event_log_ = owned_event_log_.get();
  }
  SyncObservability();
}

Coordinator::~Coordinator() { UnregisterLogClock(clock_); }

void Coordinator::SyncObservability() {
  const SimTime now = clock_->Now();
  if (event_log_ != nullptr) event_log_->SyncTime(now);
  if (tracer_ == nullptr || !tracer_->enabled()) return;
  tracer_->SyncTime(now);
  SyncLogTime(now);
}

IoOptions Coordinator::QueryIo() const {
  IoOptions io;
  io.coalesce_gap_bytes = params_.coalesce_gap_bytes;
  io.chunk_cache = chunk_cache_.get();
  return io;
}

void Coordinator::Start() { vm_.Start(); }

void Coordinator::Stop() { vm_.Stop(); }

double Coordinator::EstimateWork(const QuerySpec& spec) const {
  if (spec.work_vcpu_seconds > 0) return spec.work_vcpu_seconds;
  if (spec.bytes_to_scan > 0) {
    return static_cast<double>(spec.bytes_to_scan) /
           params_.bytes_per_vcpu_second;
  }
  return 1.0;  // a nominal small query
}

int64_t Coordinator::Submit(QuerySpec spec, QueryCallback on_finish) {
  SyncObservability();
  const int64_t id = next_id_++;
  QueryRecord rec;
  rec.id = id;
  rec.spec = std::move(spec);
  rec.state = QueryState::kPending;
  rec.submit_time = clock_->Now();
  rec.bytes_scanned = rec.spec.bytes_to_scan;
  queries_[id] = std::move(rec);
  if (on_finish) callbacks_[id] = std::move(on_finish);

  QueryRecord* r = &queries_[id];
  metrics_.Add("queries_submitted", 1);
  if (tracer_ != nullptr && tracer_->enabled()) {
    r->span_id = tracer_->StartSpan("coordinator", r->spec.trace_parent);
    tracer_->Annotate(r->span_id, "query_id", static_cast<uint64_t>(id));
    tracer_->Annotate(r->span_id, "cf_enabled",
                      r->spec.cf_enabled ? "true" : "false");
  }

  if (vm_.TryStartQuery()) {
    StartInVm(r);
  } else if (r->spec.cf_enabled &&
             cf_.CanInvoke(std::max(r->spec.cf_workers,
                                    params_.default_cf_workers))) {
    StartInCf(r);
  } else {
    if (r->span_id != 0) {
      r->queue_span_id = tracer_->StartSpan("vm-queue", r->span_id);
    }
    vm_queue_.push_back(id);
    UpdateBacklog();
    metrics_.Record("vm_queue_depth", clock_->Now(),
                    static_cast<double>(vm_queue_.size()));
  }
  return id;
}

void Coordinator::SetExternalPending(int relaxed_held, int deferred_held) {
  external_pending_ = relaxed_held < 0 ? 0 : relaxed_held;
  external_deferred_ = deferred_held < 0 ? 0 : deferred_held;
  UpdateBacklog();
}

void Coordinator::UpdateBacklog() {
  vm_.SetBacklog(static_cast<int>(vm_queue_.size()) + external_pending_);
  vm_.SetDeferredBacklog(external_deferred_);
}

bool Coordinator::TryRecall(int64_t id, QuerySpec* spec_out) {
  auto it = queries_.find(id);
  if (it == queries_.end()) return false;
  QueryRecord& rec = it->second;
  if (rec.state != QueryState::kPending) return false;
  auto pos = std::find(vm_queue_.begin(), vm_queue_.end(), id);
  if (pos == vm_queue_.end()) return false;  // CF-dispatched or racing
  vm_queue_.erase(pos);
  SyncObservability();
  if (rec.queue_span_id != 0) {
    tracer_->Annotate(rec.queue_span_id, "released_by", "recalled");
    tracer_->EndSpan(rec.queue_span_id);
    rec.queue_span_id = 0;
  }
  if (tracer_ != nullptr && tracer_->enabled()) {
    // Instant span marking the recall decision, nested under the server's
    // query span when the server shares its tracer (else under ours).
    const uint64_t parent =
        rec.spec.trace_parent != 0 ? rec.spec.trace_parent : rec.span_id;
    const uint64_t recall_span = tracer_->StartSpan("admission.recall", parent);
    tracer_->Annotate(recall_span, "reason", "immediate-burst");
    tracer_->Annotate(recall_span, "query_id", static_cast<uint64_t>(id));
    tracer_->EndSpan(recall_span);
  }
  if (rec.span_id != 0) {
    tracer_->Annotate(rec.span_id, "state", "recalled");
    tracer_->EndSpan(rec.span_id);
  }
  if (event_log_ != nullptr) {
    Json f = Json::Object();
    f.Set("query_id", Json(id));
    f.Set("reason", Json("immediate-burst"));
    f.Set("queue_depth", Json(static_cast<int64_t>(vm_queue_.size())));
    event_log_->Emit("admission.recall", std::move(f));
  }
  if (spec_out != nullptr) *spec_out = std::move(rec.spec);
  callbacks_.erase(id);
  queries_.erase(it);
  metrics_.Add("queries_recalled", 1);
  UpdateBacklog();
  metrics_.Record("vm_queue_depth", clock_->Now(),
                  static_cast<double>(vm_queue_.size()));
  return true;
}

void Coordinator::DispatchFromQueue() {
  SyncObservability();
  while (!vm_queue_.empty()) {
    if (!vm_.TryStartQuery()) break;
    int64_t id = vm_queue_.front();
    vm_queue_.pop_front();
    StartInVm(&queries_[id]);
  }
  UpdateBacklog();
  metrics_.Record("vm_queue_depth", clock_->Now(),
                  static_cast<double>(vm_queue_.size()));
}

void Coordinator::MaybeExecuteReal(QueryRecord* rec, bool via_cf) {
  if (!rec->spec.execute_real || catalog_ == nullptr || rec->spec.sql.empty()) {
    return;
  }
  Tracer* tracer =
      tracer_ != nullptr && tracer_->enabled() ? tracer_ : nullptr;
  const bool profiling = tracer != nullptr && tracer_->profiling();
  QueryProfile profile;
  uint64_t exec_span = 0;
  uint64_t prior_parent = 0;
  if (tracer != nullptr) {
    exec_span = tracer->StartSpan(via_cf ? "execute-cf" : "execute-vm",
                                  rec->span_id);
    prior_parent = tracer->ActiveParent();
    tracer->SetActiveParent(exec_span);
  }
  // Everything below reports through these on every exit path.
  auto finish_trace = [&] {
    if (tracer == nullptr) return;
    if (!rec->error.empty()) {
      tracer->Annotate(exec_span, "error", rec->error);
    }
    tracer->Annotate(exec_span, "bytes_scanned", rec->bytes_scanned);
    tracer->EndSpan(exec_span);
    tracer->SetActiveParent(prior_parent);
    if (profiling && rec->error.empty()) rec->profile = profile.ToText();
  };
  if (via_cf) {
    uint64_t plan_span = 0;
    if (tracer != nullptr) plan_span = tracer->StartSpan("plan", exec_span);
    auto plan = PlanQuery(rec->spec.sql, *catalog_, rec->spec.db);
    Result<PlanPtr> optimized =
        plan.ok() ? Optimize(std::move(plan).ValueOrDie(), *catalog_)
                  : std::move(plan);
    if (tracer != nullptr) {
      if (!optimized.ok()) {
        tracer->Annotate(plan_span, "error", optimized.status().ToString());
      }
      tracer->EndSpan(plan_span);
    }
    if (!optimized.ok()) {
      rec->error = optimized.status().ToString();
      finish_trace();
      return;
    }
    CfWorkerOptions options;
    options.num_workers = std::max(rec->spec.cf_workers,
                                   params_.default_cf_workers);
    options.intermediate_store = catalog_->storage();
    options.view_prefix = "intermediate/q" + std::to_string(rec->id);
    options.io = QueryIo();
    options.mv_store = mv_store_.get();
    options.max_worker_attempts = params_.cf_max_worker_attempts;
    options.runtime_filters = params_.runtime_filters;
    options.tracer = tracer_;
    options.trace_parent = exec_span;
    options.profile = profiling ? &profile : nullptr;
    options.event_log = event_log_;
    options.shuffle.enabled = params_.cf_shuffle;
    options.shuffle.partitions = params_.cf_shuffle_partitions;
    options.shuffle.producer_tasks = params_.cf_shuffle_producer_tasks;
    if (params_.cf_shuffle) {
      // Deterministic straggler model: slow rules on the fault-injecting
      // decorator (anywhere in the storage stack) stretch whole task
      // attempts by path, feeding the hedging cutoff.
      Storage* s = catalog_->storage();
      while (s != nullptr) {
        if (auto* fault = dynamic_cast<FaultInjectingStorage*>(s)) {
          options.shuffle.path_slow_ms = [fault](const std::string& path) {
            return fault->PathSlowMs(path);
          };
          break;
        }
        if (auto* t = dynamic_cast<TracingStorage*>(s)) {
          s = t->inner();
        } else if (auto* o = dynamic_cast<ObjectStore*>(s)) {
          s = o->inner();
        } else if (auto* r = dynamic_cast<RetryingStorage*>(s)) {
          s = r->inner();
        } else {
          break;
        }
      }
    }
    auto exec = ExecuteWithCfPushdown(std::move(optimized).ValueOrDie(),
                                      catalog_.get(), options);
    if (!exec.ok()) {
      rec->error = exec.status().ToString();
      finish_trace();
      return;
    }
    rec->result = exec->result;
    rec->bytes_scanned = exec->bytes_scanned;
    rec->cf_workers_used = exec->workers_used;
    rec->cf_worker_retries = exec->worker_retries;
    rec->cf_fallback_workers = exec->workers_fallback;
    rec->cf_fallback_bytes = exec->fallback_bytes_scanned;
    rec->used_shuffle = exec->shuffle_used;
    rec->shuffle_stages = exec->shuffle_stages;
    rec->cf_hedges_fired = exec->hedges_fired;
    rec->cf_hedges_won = exec->hedges_won;
    rec->shuffle_bytes_written = exec->shuffle_bytes_written;
    rec->shuffle_bytes_read = exec->shuffle_bytes_read;
    if (exec->shuffle_used) {
      metrics_.Add("cf_shuffle_queries", 1);
      metrics_.Add("cf_hedge_fired_total", exec->hedges_fired);
      metrics_.Add("cf_hedge_won_total", exec->hedges_won);
      metrics_.Add("cf_shuffle_bytes_written",
                   static_cast<double>(exec->shuffle_bytes_written));
      metrics_.Add("cf_shuffle_bytes_read",
                   static_cast<double>(exec->shuffle_bytes_read));
      for (const double wall : exec->shuffle_stage_wall_ms) {
        metrics_.Observe("cf_stage_wall_ms", wall);
      }
    }
    SetRecordRf(rec, exec->rf);
    rec->mv_hit = exec->mv_full_hit;
    rec->mv_saved_bytes = exec->mv_saved_bytes;
    if (exec->mv_full_hit || exec->mv_subplan_hit) {
      metrics_.Add("mv_hits", 1);
      metrics_.Add("mv_saved_bytes",
                   static_cast<double>(exec->mv_saved_bytes));
    }
    finish_trace();
    return;
  }
  ExecContext ctx;
  ctx.catalog = catalog_.get();
  ctx.io = QueryIo();
  ctx.mv_store = mv_store_.get();
  ctx.tracer = tracer_;
  ctx.trace_parent = exec_span;
  ctx.profile = profiling ? &profile : nullptr;
  ctx.runtime_filters = params_.runtime_filters;
  auto result = ExecuteQuery(rec->spec.sql, rec->spec.db, &ctx);
  if (!result.ok()) {
    rec->error = result.status().ToString();
    finish_trace();
    return;
  }
  rec->result = std::move(result).ValueOrDie();
  rec->bytes_scanned = ctx.bytes_scanned;
  SetRecordRf(rec, RfStats::From(ctx));
  rec->mv_hit = ctx.mv_hits.load() > 0;
  rec->mv_saved_bytes = ctx.mv_saved_bytes.load();
  if (rec->mv_hit) {
    metrics_.Add("mv_hits", 1);
    metrics_.Add("mv_saved_bytes", static_cast<double>(rec->mv_saved_bytes));
  }
  finish_trace();
}

void Coordinator::StartInVm(QueryRecord* rec) {
  rec->state = QueryState::kRunning;
  rec->start_time = clock_->Now();
  metrics_.Observe("vm_queue_wait_ms",
                   static_cast<double>(rec->start_time - rec->submit_time));
  if (rec->queue_span_id != 0) {
    tracer_->Annotate(rec->queue_span_id, "wait_ms",
                      static_cast<uint64_t>(rec->start_time -
                                            rec->submit_time));
    tracer_->EndSpan(rec->queue_span_id);
    rec->queue_span_id = 0;
  }
  MaybeExecuteReal(rec, /*via_cf=*/false);

  if (!rec->error.empty()) {
    // Fail fast: a failed execution holds its slot only for the fixed
    // overhead, accrues no compute cost, and is never billed.
    rec->compute_cost_usd = 0;
    clock_->Schedule(params_.query_overhead, [this, id = rec->id] {
      vm_.FinishQuery();
      Finish(&queries_[id]);
    });
    return;
  }

  const double work = rec->spec.execute_real && rec->bytes_scanned > 0
                          ? static_cast<double>(rec->bytes_scanned) /
                                params_.bytes_per_vcpu_second
                          : EstimateWork(rec->spec);
  const double query_vcpus =
      static_cast<double>(params_.vm.vcpus_per_vm) /
      std::max(params_.vm.slots_per_vm, 1);
  const SimTime duration =
      params_.query_overhead +
      static_cast<SimTime>(std::ceil(work / query_vcpus * 1000.0));
  rec->compute_cost_usd =
      params_.pricing.VmComputeCost(work);

  clock_->Schedule(duration, [this, id = rec->id] {
    QueryRecord* r = &queries_[id];
    vm_.FinishQuery();
    Finish(r);
  });
}

void Coordinator::StartInCf(QueryRecord* rec) {
  rec->state = QueryState::kRunning;
  rec->start_time = clock_->Now();
  if (rec->queue_span_id != 0) {
    tracer_->Annotate(rec->queue_span_id, "wait_ms",
                      static_cast<uint64_t>(rec->start_time -
                                            rec->submit_time));
    tracer_->EndSpan(rec->queue_span_id);
    rec->queue_span_id = 0;
  }
  MaybeExecuteReal(rec, /*via_cf=*/true);

  if (!rec->error.empty()) {
    // Fail fast: no fleet is hired for a failed execution, so a failed
    // query accrues neither CF cost nor a bill.
    rec->compute_cost_usd = 0;
    clock_->Schedule(params_.query_overhead,
                     [this, id = rec->id] { Finish(&queries_[id]); });
    return;
  }

  if (rec->mv_hit) {
    // A full MV hit answered the query before any worker could be hired:
    // no CF invocation, no compute cost, just the fixed query overhead.
    rec->cf_workers_used = 0;
    rec->compute_cost_usd = 0;
    clock_->Schedule(params_.query_overhead,
                     [this, id = rec->id] { Finish(&queries_[id]); });
    return;
  }

  if (rec->cf_worker_retries > 0) {
    metrics_.Add("cf_worker_retries", rec->cf_worker_retries);
  }
  if (rec->cf_fallback_workers > 0) {
    metrics_.Add("cf_fallback_workers", rec->cf_fallback_workers);
  }

  const double work = rec->spec.execute_real && rec->bytes_scanned > 0
                          ? static_cast<double>(rec->bytes_scanned) /
                                params_.bytes_per_vcpu_second
                          : EstimateWork(rec->spec);
  // Work done by VM-path fallback partitions is priced at the VM rate;
  // only the remainder is a CF invocation.
  const double fallback_work =
      rec->cf_fallback_bytes > 0
          ? static_cast<double>(rec->cf_fallback_bytes) /
                params_.bytes_per_vcpu_second
          : 0.0;
  const double cf_work = std::max(work - fallback_work, 0.0);

  if (rec->spec.execute_real && rec->cf_fallback_workers > 0 &&
      rec->cf_workers_used == 0) {
    // Every pushed partition exhausted CF retries: the query effectively
    // ran on the VM path. `used_cf` stays false and the compute cost is
    // VM-priced — the record reflects what actually happened.
    metrics_.Add("cf_fleet_degraded_queries", 1);
    rec->compute_cost_usd = params_.pricing.VmComputeCost(work);
    const double query_vcpus =
        static_cast<double>(params_.vm.vcpus_per_vm) /
        std::max(params_.vm.slots_per_vm, 1);
    const SimTime duration =
        params_.query_overhead +
        static_cast<SimTime>(std::ceil(work / query_vcpus * 1000.0));
    clock_->Schedule(duration, [this, id = rec->id] { Finish(&queries_[id]); });
    return;
  }

  rec->used_cf = true;
  metrics_.Add("queries_cf_accelerated", 1);
  const int workers = rec->cf_workers_used > 0
                          ? rec->cf_workers_used
                          : std::max(rec->spec.cf_workers,
                                     params_.default_cf_workers);
  CfInvocationResult inv =
      cf_.Invoke(workers, cf_work, [this, id = rec->id] {
        Finish(&queries_[id]);
      });
  rec->cf_workers_used = inv.workers;
  rec->compute_cost_usd =
      inv.cost_usd + params_.pricing.VmComputeCost(fallback_work);
}

void Coordinator::PublishStorageMetrics() {
  if (catalog_ == nullptr) return;
  Storage* raw = catalog_->storage();
  // A TracingStorage decorator may sit on top of the ObjectStore; stats
  // live on the store underneath it.
  if (auto* tracing = dynamic_cast<TracingStorage*>(raw)) {
    raw = tracing->inner();
  }
  auto* store = dynamic_cast<ObjectStore*>(raw);
  if (store == nullptr) return;
  const ObjectStoreStats s = store->stats();
  const uint64_t delta_gets = s.get_requests - published_storage_.get_requests;
  const double delta_read_ms =
      s.simulated_read_ms - published_storage_.simulated_read_ms;
  if (delta_gets > 0) {
    // Mean simulated GET latency over the window since the last publish —
    // one observation per window keeps the histogram bounded while the
    // distribution across windows still shows contention and coalescing.
    metrics_.Observe("storage_get_latency_ms",
                     delta_read_ms / static_cast<double>(delta_gets));
  }
  metrics_.Add("storage_retries",
               static_cast<double>(s.retry_attempts) -
                   static_cast<double>(published_storage_.retry_attempts));
  metrics_.Add("storage_retry_recovered",
               static_cast<double>(s.retry_recovered) -
                   static_cast<double>(published_storage_.retry_recovered));
  metrics_.Add("storage_retry_exhausted",
               static_cast<double>(s.retry_exhausted) -
                   static_cast<double>(published_storage_.retry_exhausted));
  metrics_.Add("storage_backoff_ms",
               s.retry_backoff_ms - published_storage_.retry_backoff_ms);
  published_storage_ = s;
}

void Coordinator::Finish(QueryRecord* rec) {
  SyncObservability();
  rec->finish_time = clock_->Now();
  rec->state = rec->error.empty() ? QueryState::kFinished : QueryState::kFailed;
  metrics_.Add(rec->error.empty() ? "queries_finished" : "queries_failed", 1);
  metrics_.Observe("query_execution_ms",
                   static_cast<double>(rec->ExecutionTime()));
  PublishStorageMetrics();
  if (rec->span_id != 0) {
    tracer_->Annotate(rec->span_id, "state", QueryStateName(rec->state));
    tracer_->Annotate(rec->span_id, "bytes_scanned", rec->bytes_scanned);
    if (rec->used_cf) {
      tracer_->Annotate(rec->span_id, "cf_workers",
                        static_cast<uint64_t>(rec->cf_workers_used));
    }
    tracer_->EndSpan(rec->span_id);
  }
  auto cb = callbacks_.find(rec->id);
  if (cb != callbacks_.end()) {
    QueryCallback fn = std::move(cb->second);
    callbacks_.erase(cb);
    fn(*rec);
  }
}

const QueryRecord* Coordinator::GetQuery(int64_t id) const {
  auto it = queries_.find(id);
  return it == queries_.end() ? nullptr : &it->second;
}

MetricsRegistry Coordinator::MetricsSnapshot() {
  PublishStorageMetrics();
  MetricsRegistry out = metrics_;
  out.MergeFrom(vm_.metrics());
  out.MergeFrom(cf_.metrics());
  if (chunk_cache_ != nullptr) {
    const BufferCacheStats c = chunk_cache_->stats();
    out.SetGauge("chunk_cache_hits", static_cast<double>(c.hits));
    out.SetGauge("chunk_cache_misses", static_cast<double>(c.misses));
    out.SetGauge("chunk_cache_evictions", static_cast<double>(c.evictions));
    out.SetGauge("chunk_cache_bytes", static_cast<double>(c.bytes_cached));
  }
  const FooterCacheStats f = FooterCache::Shared()->stats();
  out.SetGauge("footer_cache_hits", static_cast<double>(f.hits));
  out.SetGauge("footer_cache_misses", static_cast<double>(f.misses));
  if (mv_store_ != nullptr) {
    const MvStoreStats m = mv_store_->stats();
    out.SetGauge("mv_store_lookups", static_cast<double>(m.lookups));
    out.SetGauge("mv_store_hits", static_cast<double>(m.hits));
    out.SetGauge("mv_store_invalidations",
                 static_cast<double>(m.invalidations));
    out.SetGauge("mv_store_saved_scan_bytes",
                 static_cast<double>(m.saved_scan_bytes));
    out.SetGauge("mv_store_bytes", static_cast<double>(m.bytes_cached));
  }
  if (catalog_ != nullptr) {
    Storage* raw = catalog_->storage();
    if (auto* tracing = dynamic_cast<TracingStorage*>(raw)) {
      raw = tracing->inner();
    }
    if (auto* store = dynamic_cast<ObjectStore*>(raw)) {
      const ObjectStoreStats s = store->stats();
      out.SetGauge("storage_get_requests",
                   static_cast<double>(s.get_requests));
      out.SetGauge("storage_put_requests",
                   static_cast<double>(s.put_requests));
      out.SetGauge("storage_bytes_read", static_cast<double>(s.bytes_read));
      out.SetGauge("storage_coalesced_gets",
                   static_cast<double>(s.coalesced_gets));
      out.SetGauge("storage_request_cost_usd", s.request_cost_usd);
    }
  }
  return out;
}

std::vector<const QueryRecord*> Coordinator::AllQueries() const {
  std::vector<const QueryRecord*> out;
  out.reserve(queries_.size());
  for (const auto& [_, rec] : queries_) out.push_back(&rec);
  return out;
}

}  // namespace pixels
