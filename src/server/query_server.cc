#include "server/query_server.h"

#include <algorithm>

#include "common/logging.h"

namespace pixels {

QueryServer::QueryServer(SimClock* clock, Coordinator* coordinator,
                         QueryServerParams params)
    : clock_(clock),
      coordinator_(coordinator),
      params_(params),
      admission_(params.admission, params.prices,
                 coordinator->params().pricing,
                 coordinator->params().default_cf_workers),
      sessions_(params.session_shards),
      client_sessions_(params.session_shards),
      slo_(params.slo, params.relaxed_grace_period) {
  mailbox_.set_event_log(coordinator->event_log());
}

Tracer* QueryServer::SyncedTracer() {
  coordinator_->SyncObservability();
  Tracer* tracer = coordinator_->tracer();
  return tracer != nullptr && tracer->enabled() ? tracer : nullptr;
}

EventLog* QueryServer::SyncedLog() {
  coordinator_->SyncObservability();
  return coordinator_->event_log();
}

// ---------------------------------------------------------------------------
// Message routing

void QueryServer::Enqueue(ServerMessage msg) {
  mailbox_.Push(std::move(msg));
  // Pump immediately on the calling (simulation) thread: messages are
  // handled at the virtual time they were produced, in production order.
  // If a pump is already active (this enqueue came from inside a
  // handler), the active pump's loop absorbs the message after the
  // current one settles — handlers never nest.
  mailbox_.Pump([this](ServerMessage&& m) { HandleMessage(std::move(m)); });
}

void QueryServer::HandleMessage(ServerMessage&& msg) {
  switch (msg.kind) {
    case ServerMessage::Kind::kSubmit:
      HandleSubmit(msg.server_id);
      break;
    case ServerMessage::Kind::kCompletion:
      HandleCompletion(msg.server_id, msg.completion);
      break;
    case ServerMessage::Kind::kPoll:
      HandlePoll();
      break;
  }
}

// ---------------------------------------------------------------------------
// Lifecycle

void QueryServer::Stop() {
  if (stopped_) return;
  stopped_ = true;
  if (polling_) {
    clock_->Cancel(poll_event_);
    polling_ = false;
  }
  // Held queries could never dispatch once polling stops: fail each with
  // an explicit cancelled status instead of stranding it (and its
  // callback, and its open hold span) forever.
  Tracer* tracer = SyncedTracer();
  std::deque<Held> relaxed, best_effort;
  relaxed.swap(relaxed_held_);
  best_effort.swap(best_effort_held_);
  for (const Held& h : relaxed) CancelHeld(h, tracer);
  for (const Held& h : best_effort) CancelHeld(h, tracer);
  dispatched_best_effort_.clear();
  UpdateExternalPending();
  // Export the audit log once everything held has settled, so the file
  // includes the cancel events above.
  if (!params_.event_log_path.empty()) {
    if (EventLog* log = SyncedLog()) {
      const Status st = log->WriteTo(params_.event_log_path);
      if (!st.ok()) {
        PIXELS_LOG(kWarn) << "event-log export failed: " << st.message();
      }
    }
  }
}

void QueryServer::CancelHeld(const Held& held, Tracer* tracer) {
  Session* sess = sessions_.Find(held.server_id);
  if (sess == nullptr) return;
  SubmissionRecord& srec = sess->record;
  if (srec.billed) return;
  srec.billed = true;
  srec.cancelled = true;
  srec.bill_usd = 0;
  srec.error = "query server stopped before dispatch";
  // Cancelled-at-Stop is an operator action, not a service failure:
  // excluded from compliance and charged to nobody's error budget.
  slo_.OnSettled(srec.level, QueryState::kFailed, /*cancelled=*/true,
                 srec.received_time, /*start_time=*/-1, clock_->Now());
  if (EventLog* log = SyncedLog()) {
    Json f = Json::Object();
    f.Set("server_id", srec.server_id);
    f.Set("level", ServiceLevelName(srec.level));
    f.Set("reason", "server-stopped");
    log->Emit("admission.cancel", std::move(f));
  }
  metrics_.Add("submissions_cancelled", 1);
  metrics_.Add(std::string("submissions_cancelled_") +
                   ServiceLevelName(srec.level),
               1);
  if (tracer != nullptr) {
    if (held.hold_span != 0) {
      tracer->Annotate(held.hold_span, "released_by", "server-stopped");
      tracer->EndSpan(held.hold_span);
    }
    if (srec.span_id != 0) {
      tracer->Annotate(srec.span_id, "state", "cancelled");
      tracer->Annotate(srec.span_id, "error", srec.error);
      tracer->EndSpan(srec.span_id);
    }
  }
  if (srec.session_id != 0) {
    if (ClientSession* cs = client_sessions_.Find(srec.session_id)) {
      cs->queries_settled++;
    }
  }
  // Synthetic engine-side record: the query never reached the
  // coordinator, so fabricate the failed view the callback expects.
  QueryRecord qrec;
  qrec.state = QueryState::kFailed;
  qrec.error = srec.error;
  qrec.submit_time = srec.received_time;
  if (sess->has_spec) qrec.spec = sess->spec;
  FinishCallback fn = std::move(sess->callback);
  sess->callback = nullptr;
  if (fn) {
    const SubmissionRecord snapshot = srec;  // settle fully, pass a copy
    fn(snapshot, qrec);
  }
}

// ---------------------------------------------------------------------------
// Submission

int64_t QueryServer::Submit(Submission submission, FinishCallback on_finish) {
  if (stopped_) {
    // A stopped server no longer polls, so a held query could never be
    // dispatched — reject instead of accepting work that would hang.
    metrics_.Add("submissions_rejected", 1);
    return -1;
  }
  const int64_t id = next_id_++;
  Session* sess = sessions_.Emplace(id);
  SubmissionRecord& rec = sess->record;
  rec.server_id = id;
  rec.level = submission.level;
  rec.session_id = submission.session_id;
  rec.received_time = clock_->Now();
  if (on_finish) sess->callback = std::move(on_finish);

  if (submission.session_id != 0) {
    if (ClientSession* cs = client_sessions_.Find(submission.session_id)) {
      cs->queries_submitted++;
    }
  }

  // Apply the result-size limit by wrapping the SQL? The engine applies
  // LIMIT in the plan; here we record the effective limit on the spec for
  // real executions (client-side truncation otherwise).
  sess->result_limit = submission.result_limit > 0
                           ? submission.result_limit
                           : params_.default_result_limit;
  sess->spec = std::move(submission.query);
  sess->has_spec = true;
  metrics_.Add("submissions", 1);
  metrics_.Add(std::string("submissions_") + ServiceLevelName(rec.level), 1);
  Tracer* tracer = SyncedTracer();
  if (tracer != nullptr) {
    rec.span_id = tracer->StartSpan("query");
    tracer->Annotate(rec.span_id, "server_id", static_cast<uint64_t>(id));
    tracer->Annotate(rec.span_id, "level", ServiceLevelName(rec.level));
    if (rec.session_id != 0) {
      tracer->Annotate(rec.span_id, "session_id",
                       static_cast<uint64_t>(rec.session_id));
    }
  }

  ServerMessage msg;
  msg.kind = ServerMessage::Kind::kSubmit;
  msg.server_id = id;
  Enqueue(std::move(msg));
  return id;
}

void QueryServer::HandleSubmit(int64_t server_id) {
  Session* sess = sessions_.Find(server_id);
  if (sess == nullptr || !sess->has_spec) return;
  const SimTime now = clock_->Now();
  SubmissionRecord& rec = sess->record;
  Tracer* tracer = SyncedTracer();

  if (rec.level == ServiceLevel::kImmediate) {
    admission_.NoteImmediateArrival(now);
    // A burst crossing the threshold preempts best-effort work still
    // waiting in the coordinator's VM queue, clearing the runway before
    // this query is placed.
    if (admission_.BurstActive(now)) {
      const size_t recalled = PreemptQueuedBestEffort(tracer);
      if (recalled > 0) {
        if (tracer != nullptr) {
          // Instant span under the triggering Immediate query, so the
          // preemption shows up in its trace subtree.
          const uint64_t burst = tracer->StartSpan("admission.burst",
                                                   rec.span_id);
          tracer->Annotate(burst, "reason", "immediate-burst");
          tracer->Annotate(burst, "recalled",
                           static_cast<uint64_t>(recalled));
          tracer->EndSpan(burst);
        }
        if (EventLog* log = SyncedLog()) {
          Json f = Json::Object();
          f.Set("server_id", rec.server_id);
          f.Set("recalled", static_cast<int64_t>(recalled));
          log->Emit("admission.burst", std::move(f));
        }
      }
    }
  }

  const AdmissionSignals sig = Signals();
  const AdmissionDecision d =
      admission_.Decide(rec.level, sess->spec.bytes_to_scan, sig, now);
  sess->predicted_bill = d.predicted_bill_usd;
  sess->predicted_cf_cost = d.predicted_cf_cost_usd;
  if (EventLog* log = SyncedLog()) {
    Json f = Json::Object();
    f.Set("server_id", rec.server_id);
    f.Set("level", ServiceLevelName(rec.level));
    f.Set("reason", d.reason);
    f.Set("watermark", d.watermark);
    f.Set("concurrency", d.concurrency);
    f.Set("queue_depth", static_cast<int64_t>(sig.queue_depth));
    f.Set("held", static_cast<int64_t>(HeldQueries()));
    f.Set("predicted_bill_usd", d.predicted_bill_usd);
    if (d.predicted_cf_cost_usd > 0) {
      f.Set("predicted_cf_cost_usd", d.predicted_cf_cost_usd);
    }
    if (d.dispatch) f.Set("cf_enabled", d.cf_enabled);
    log->Emit(d.dispatch ? "admission.dispatch" : "admission.hold",
              std::move(f));
  }
  if (d.dispatch) {
    DispatchToCoordinator(server_id, d.cf_enabled);
    return;
  }

  Held held{server_id,
            rec.level == ServiceLevel::kRelaxed
                ? now + params_.relaxed_grace_period
                : 0};
  if (tracer != nullptr) {
    held.hold_span = tracer->StartSpan("hold", rec.span_id);
    tracer->Annotate(held.hold_span, "level", ServiceLevelName(rec.level));
    tracer->Annotate(held.hold_span, "reason", d.reason);
  }
  if (rec.level == ServiceLevel::kRelaxed) {
    relaxed_held_.push_back(held);
  } else {
    best_effort_held_.push_back(held);
  }
  UpdateExternalPending();
  SchedulePoll();
}

void QueryServer::DispatchToCoordinator(int64_t server_id, bool cf_enabled) {
  Session* sess = sessions_.Find(server_id);
  if (sess == nullptr || !sess->has_spec) return;
  QuerySpec spec = std::move(sess->spec);
  sess->has_spec = false;

  SubmissionRecord& rec = sess->record;
  rec.dispatch_time = clock_->Now();
  if (!sess->wait_observed) {
    sess->wait_observed = true;
    const double wait =
        static_cast<double>(rec.dispatch_time - rec.received_time);
    metrics_.Observe(std::string("queue_wait_ms{level=\"") +
                         ServiceLevelName(rec.level) + "\"}",
                     wait);
    // Windowed queue-wait telemetry: the per-level p99 of this feeds the
    // adaptive-watermark controller.
    slo_.ObserveQueueWait(rec.level, rec.dispatch_time, wait);
  }

  spec.cf_enabled = cf_enabled;
  spec.trace_parent = rec.span_id;
  if (rec.level == ServiceLevel::kBestEffort &&
      admission_.params().preempt_best_effort) {
    dispatched_best_effort_.push_back(server_id);
  }

  rec.coordinator_id = coordinator_->Submit(
      std::move(spec), [this, server_id](const QueryRecord& qrec) {
        ServerMessage msg;
        msg.kind = ServerMessage::Kind::kCompletion;
        msg.server_id = server_id;
        msg.completion = qrec;
        Enqueue(std::move(msg));
      });
}

// ---------------------------------------------------------------------------
// Completion

void QueryServer::HandleCompletion(int64_t server_id,
                                   const QueryRecord& qrec) {
  Session* sess = sessions_.Find(server_id);
  if (sess == nullptr) return;
  SubmissionRecord& srec = sess->record;
  // Idempotence: the first completion settles the submission. A
  // double-fired or re-invoked completion (CF re-invocation makes this a
  // live hazard) must never accumulate the bill twice.
  if (srec.billed) return;
  srec.billed = true;
  const SimTime now = clock_->Now();
  metrics_.Observe(std::string("query_latency_ms{level=\"") +
                       ServiceLevelName(srec.level) + "\"}",
                   static_cast<double>(now - srec.received_time));
  // Score the deadline verdict before anything else settles: the verdict
  // is a pure function of (level, state, received, start), recomputable
  // from the records — the compliance tests rely on that.
  const SloOutcome slo_out =
      slo_.OnSettled(srec.level, qrec.state, /*cancelled=*/false,
                     srec.received_time, qrec.start_time, now);
  if (srec.level == ServiceLevel::kBestEffort &&
      !dispatched_best_effort_.empty()) {
    dispatched_best_effort_.erase(
        std::remove(dispatched_best_effort_.begin(),
                    dispatched_best_effort_.end(), server_id),
        dispatched_best_effort_.end());
  }
  Tracer* tracer = SyncedTracer();
  if (qrec.state == QueryState::kFailed) {
    // A failed query is never billed and delivers no result; the error
    // string stays visible through GetStatus.
    srec.bill_usd = 0;
    metrics_.Add("queries_failed", 1);
    if (EventLog* log = SyncedLog()) {
      Json f = Json::Object();
      f.Set("server_id", srec.server_id);
      f.Set("level", ServiceLevelName(srec.level));
      f.Set("state", "failed");
      f.Set("verdict", SloVerdictName(slo_out.verdict));
      f.Set("pending_ms",
            qrec.start_time >= 0
                ? static_cast<int64_t>(qrec.start_time - srec.received_time)
                : static_cast<int64_t>(now - srec.received_time));
      f.Set("bill_usd", srec.bill_usd);
      f.Set("predicted_bill_usd", sess->predicted_bill);
      log->Emit("query.settle", std::move(f));
    }
    MaybeUpdateAdaptiveWatermark(now);
    if (tracer != nullptr && srec.span_id != 0) {
      tracer->Annotate(srec.span_id, "state", "failed");
      tracer->Annotate(srec.span_id, "error", qrec.error);
      tracer->EndSpan(srec.span_id);
    }
    if (srec.session_id != 0) {
      if (ClientSession* cs = client_sessions_.Find(srec.session_id)) {
        cs->queries_settled++;
      }
    }
    // Settle the record fully, THEN invoke the callback with stable
    // copies: a callback that re-enters Submit() must never observe (or
    // invalidate) a half-settled record.
    FinishCallback fn = std::move(sess->callback);
    sess->callback = nullptr;
    if (fn) {
      const SubmissionRecord snapshot = srec;
      fn(snapshot, qrec);
    }
    return;
  }
  srec.mv_hit = qrec.mv_hit;
  srec.mv_saved_bytes = qrec.mv_saved_bytes;
  // Scanned bytes bill at the full service-level rate; bytes an MV hit
  // avoided scanning bill at the reuse fraction. A full hit therefore
  // costs `fraction × original bill` — strictly cheaper, never free, and
  // auditable from the counters below.
  srec.bill_usd =
      params_.prices.Bill(srec.level, qrec.bytes_scanned) +
      params_.mv_reuse_bill_fraction *
          params_.prices.Bill(srec.level, qrec.mv_saved_bytes);
  total_billed_ += srec.bill_usd;
  metrics_.Add("billed_usd", srec.bill_usd);
  if (qrec.mv_hit) metrics_.Add("mv_hits", 1);
  if (qrec.mv_saved_bytes > 0) {
    metrics_.Add("mv_saved_bytes", static_cast<double>(qrec.mv_saved_bytes));
    metrics_.Add("mv_discount_usd",
                 (1.0 - params_.mv_reuse_bill_fraction) *
                     params_.prices.Bill(srec.level, qrec.mv_saved_bytes));
  }
  // Enforce the result-size limit client-side.
  const int64_t result_limit = sess->result_limit;
  QueryRecord limited = qrec;
  if (result_limit > 0 && limited.result != nullptr &&
      limited.result->num_rows() > static_cast<uint64_t>(result_limit)) {
    auto truncated = std::make_shared<Table>();
    int64_t remaining = result_limit;
    for (const auto& batch : limited.result->batches()) {
      if (remaining <= 0) break;
      if (static_cast<int64_t>(batch->num_rows()) <= remaining) {
        truncated->AddBatch(batch);
        remaining -= static_cast<int64_t>(batch->num_rows());
      } else {
        std::vector<uint32_t> sel;
        for (int64_t i = 0; i < remaining; ++i) {
          sel.push_back(static_cast<uint32_t>(i));
        }
        truncated->AddBatch(batch->Gather(sel));
        remaining = 0;
      }
    }
    limited.result = truncated;
  }
  srec.result = limited.result;
  if (tracer != nullptr && srec.span_id != 0) {
    tracer->Annotate(srec.span_id, "state", "finished");
    tracer->Annotate(srec.span_id, "bytes_scanned", qrec.bytes_scanned);
    tracer->Annotate(srec.span_id, "bill_usd", std::to_string(srec.bill_usd));
    tracer->EndSpan(srec.span_id);
  }
  if (srec.session_id != 0) {
    if (ClientSession* cs = client_sessions_.Find(srec.session_id)) {
      cs->queries_settled++;
      cs->billed_usd += srec.bill_usd;
    }
  }
  if (EventLog* log = SyncedLog()) {
    Json f = Json::Object();
    f.Set("server_id", srec.server_id);
    f.Set("level", ServiceLevelName(srec.level));
    f.Set("state", "finished");
    f.Set("verdict", SloVerdictName(slo_out.verdict));
    if (slo_out.scored_margin) {
      f.Set("margin_ms", static_cast<int64_t>(slo_out.margin_ms));
    }
    f.Set("pending_ms",
          qrec.start_time >= 0
              ? static_cast<int64_t>(qrec.start_time - srec.received_time)
              : static_cast<int64_t>(0));
    f.Set("bill_usd", srec.bill_usd);
    f.Set("predicted_bill_usd", sess->predicted_bill);
    f.Set("bytes_scanned", static_cast<int64_t>(qrec.bytes_scanned));
    log->Emit("query.settle", std::move(f));
  }
  MaybeUpdateAdaptiveWatermark(now);
  // Settle fully first, then call out with stable copies (`limited` is a
  // local; the record snapshot survives any re-entrant Submit).
  FinishCallback fn = std::move(sess->callback);
  sess->callback = nullptr;
  if (fn) {
    const SubmissionRecord snapshot = srec;
    fn(snapshot, limited);
  }
}

// ---------------------------------------------------------------------------
// Held-query release

void QueryServer::SchedulePoll() {
  if (stopped_) return;
  if (relaxed_held_.empty() && best_effort_held_.empty()) return;
  SimTime delay = params_.poll_interval;
  if (!relaxed_held_.empty()) {
    // Deadlines are monotonic in arrival order (fixed grace period), so
    // the front of the deque is the nearest one.
    const SimTime until = relaxed_held_.front().deadline - clock_->Now();
    delay = std::min(delay, std::max<SimTime>(until, 0));
  }
  const SimTime fire = clock_->Now() + delay;
  if (polling_) {
    if (fire >= poll_fire_time_) return;  // a poll at least as early exists
    clock_->Cancel(poll_event_);
  }
  polling_ = true;
  poll_fire_time_ = fire;
  poll_event_ = clock_->Schedule(delay, [this] {
    ServerMessage msg;
    msg.kind = ServerMessage::Kind::kPoll;
    Enqueue(std::move(msg));
  });
}

void QueryServer::HandlePoll() {
  polling_ = false;
  if (stopped_) return;
  const SimTime now = clock_->Now();
  Tracer* tracer = SyncedTracer();
  // Windowed telemetry feed: combined hold-queue + coordinator-queue
  // depth, then let the adaptive controller react before this poll's
  // best-effort release gate runs.
  slo_.ObserveQueueDepth(
      now, static_cast<double>(HeldQueries() + coordinator_->QueueDepth()));
  MaybeUpdateAdaptiveWatermark(now);

  // Relaxed: dispatch when concurrency drops below the relaxed watermark
  // or the grace period expires (paper §3.2(2)). Signals are re-read per
  // iteration — each dispatch raises concurrency.
  while (!relaxed_held_.empty()) {
    const Held& h = relaxed_held_.front();
    if (admission_.ShouldReleaseRelaxed(Signals()) || now >= h.deadline) {
      const Held released = h;
      relaxed_held_.pop_front();
      UpdateExternalPending();
      const char* released_by =
          now >= released.deadline ? "grace-expired" : "capacity";
      if (tracer != nullptr && released.hold_span != 0) {
        tracer->Annotate(released.hold_span, "released_by", released_by);
        tracer->EndSpan(released.hold_span);
      }
      if (EventLog* log = SyncedLog()) {
        Json f = Json::Object();
        f.Set("server_id", released.server_id);
        f.Set("level", ServiceLevelName(ServiceLevel::kRelaxed));
        f.Set("released_by", released_by);
        if (const Session* s = sessions_.Find(released.server_id)) {
          f.Set("held_ms",
                static_cast<int64_t>(now - s->record.received_time));
        }
        log->Emit("admission.release", std::move(f));
      }
      DispatchToCoordinator(released.server_id, /*cf_enabled=*/false);
    } else {
      break;
    }
  }

  // Best-of-effort: dispatch one at a time while the cluster is nearly
  // idle (below the best-effort watermark), absorbing would-be
  // scale-ins. An active Immediate burst keeps the gate closed.
  while (!best_effort_held_.empty() &&
         admission_.ShouldReleaseBestEffort(Signals(), now)) {
    const Held released = best_effort_held_.front();
    best_effort_held_.pop_front();
    UpdateExternalPending();
    if (tracer != nullptr && released.hold_span != 0) {
      tracer->Annotate(released.hold_span, "released_by", "low-watermark");
      tracer->EndSpan(released.hold_span);
    }
    if (EventLog* log = SyncedLog()) {
      Json f = Json::Object();
      f.Set("server_id", released.server_id);
      f.Set("level", ServiceLevelName(ServiceLevel::kBestEffort));
      f.Set("released_by", "low-watermark");
      if (const Session* s = sessions_.Find(released.server_id)) {
        f.Set("held_ms",
              static_cast<int64_t>(now - s->record.received_time));
      }
      log->Emit("admission.release", std::move(f));
    }
    DispatchToCoordinator(released.server_id, /*cf_enabled=*/false);
    // Dispatch raises concurrency; the release gate re-checks naturally.
  }

  metrics_.Record("held_queries", now, static_cast<double>(HeldQueries()));
  if (!relaxed_held_.empty() || !best_effort_held_.empty()) {
    SchedulePoll();
  }
}

size_t QueryServer::PreemptQueuedBestEffort(Tracer* tracer) {
  if (dispatched_best_effort_.empty()) return 0;
  // Recall every best-effort query still waiting in the coordinator's VM
  // queue; running/finished ones stay (preemption is non-destructive).
  size_t recalled = 0;
  std::vector<int64_t> still_dispatched;
  still_dispatched.reserve(dispatched_best_effort_.size());
  for (const int64_t server_id : dispatched_best_effort_) {
    Session* sess = sessions_.Find(server_id);
    if (sess == nullptr || sess->record.billed) continue;
    QuerySpec spec;
    if (!coordinator_->TryRecall(sess->record.coordinator_id, &spec)) {
      still_dispatched.push_back(server_id);
      continue;
    }
    SubmissionRecord& rec = sess->record;
    rec.coordinator_id = 0;
    rec.dispatch_time = -1;
    sess->spec = std::move(spec);
    sess->has_spec = true;
    metrics_.Add("best_effort_preemptions", 1);
    recalled++;
    Held held{server_id, 0};
    if (tracer != nullptr) {
      held.hold_span = tracer->StartSpan("hold", rec.span_id);
      tracer->Annotate(held.hold_span, "level", ServiceLevelName(rec.level));
      tracer->Annotate(held.hold_span, "reason", "preempted-immediate-burst");
    }
    best_effort_held_.push_back(held);
  }
  dispatched_best_effort_.swap(still_dispatched);
  UpdateExternalPending();
  SchedulePoll();
  return recalled;
}

void QueryServer::MaybeUpdateAdaptiveWatermark(SimTime now) {
  if (!admission_.params().adaptive_watermarks) return;
  AdaptiveInputs in;
  in.violation_rate = slo_.WindowViolationRate(ServiceLevel::kBestEffort, now);
  in.queue_wait_p99_ms =
      slo_.WindowQueueWaitQuantile(ServiceLevel::kBestEffort, 99.0, now);
  in.grace_ms = static_cast<double>(slo_.GraceFor(ServiceLevel::kBestEffort));
  if (!best_effort_held_.empty()) {
    if (const Session* s = sessions_.Find(best_effort_held_.front().server_id)) {
      in.oldest_hold_ms = static_cast<double>(now - s->record.received_time);
    }
  }
  const WatermarkUpdate u = admission_.UpdateAdaptiveWatermark(in, Signals());
  if (!u.changed) return;
  metrics_.SetGauge("best_effort_watermark_adaptive", u.new_value);
  metrics_.Add(u.raised ? "adaptive_watermark_raises"
                        : "adaptive_watermark_decays",
               1);
  if (EventLog* log = SyncedLog()) {
    Json f = Json::Object();
    f.Set("old", u.old_value);
    f.Set("new", u.new_value);
    f.Set("violation_rate", in.violation_rate);
    f.Set("oldest_hold_ms", in.oldest_hold_ms);
    log->Emit("admission.watermark", std::move(f));
  }
}

SloReport QueryServer::SloReport() { return slo_.Report(clock_->Now()); }

AdmissionSignals QueryServer::Signals() const {
  AdmissionSignals sig;
  sig.engine_concurrency = coordinator_->EngineConcurrency();
  sig.total_concurrency = coordinator_->Concurrency();
  const CoordinatorParams& cp = coordinator_->params();
  sig.high_watermark = cp.vm.high_watermark;
  sig.low_watermark = cp.vm.low_watermark;
  sig.free_slots = coordinator_->vm_cluster().FreeSlots();
  sig.queue_depth = coordinator_->QueueDepth();
  sig.cf_available =
      coordinator_->cf_service().CanInvoke(cp.default_cf_workers);
  sig.bytes_per_vcpu_second = cp.bytes_per_vcpu_second;
  return sig;
}

void QueryServer::UpdateExternalPending() {
  coordinator_->SetExternalPending(
      static_cast<int>(relaxed_held_.size()),
      static_cast<int>(best_effort_held_.size()));
}

// ---------------------------------------------------------------------------
// Client sessions

int64_t QueryServer::OpenSession() {
  const int64_t id = next_session_id_++;
  ClientSession* cs = client_sessions_.Emplace(id);
  cs->id = id;
  cs->opened_time = clock_->Now();
  cs->open = true;
  open_sessions_++;
  metrics_.Add("sessions_opened", 1);
  return id;
}

bool QueryServer::CloseSession(int64_t session_id) {
  ClientSession* cs = client_sessions_.Find(session_id);
  if (cs == nullptr || !cs->open) return false;
  cs->open = false;
  open_sessions_--;
  metrics_.Add("sessions_closed", 1);
  return true;
}

const ClientSession* QueryServer::GetSession(int64_t session_id) const {
  return client_sessions_.Find(session_id);
}

// ---------------------------------------------------------------------------
// Status

Result<QueryServer::StatusView> QueryServer::GetStatus(
    int64_t server_id) const {
  const Session* sess = sessions_.Find(server_id);
  if (sess == nullptr) {
    return Status::NotFound("no such submission: " + std::to_string(server_id));
  }
  const SubmissionRecord& rec = sess->record;
  StatusView view;
  view.level = rec.level;
  view.bill_usd = rec.bill_usd;
  if (rec.cancelled) {
    view.state = QueryState::kFailed;
    view.cancelled = true;
    view.error = rec.error;
    view.pending_ms = clock_->Now() - rec.received_time;
    return view;
  }
  if (rec.coordinator_id == 0) {
    view.state = QueryState::kPending;
    view.pending_ms = clock_->Now() - rec.received_time;
    return view;
  }
  const QueryRecord* qrec = coordinator_->GetQuery(rec.coordinator_id);
  if (qrec == nullptr) return Status::Internal("dangling coordinator id");
  view.state = qrec->state;
  view.used_cf = qrec->used_cf;
  view.mv_hit = qrec->mv_hit;
  view.mv_saved_bytes = qrec->mv_saved_bytes;
  view.error = qrec->error;
  if (qrec->start_time >= 0) {
    // Pending covers server hold + coordinator queue.
    view.pending_ms = qrec->start_time - rec.received_time;
  } else {
    view.pending_ms = clock_->Now() - rec.received_time;
  }
  view.execution_ms = qrec->ExecutionTime();
  view.profile = qrec->profile;
  return view;
}

std::vector<QueryServer::StatusView> QueryServer::GetStatusBatch(
    const std::vector<int64_t>& ids, std::vector<bool>* found) const {
  // Stage 1: copy the server-side records out, one lock per shard
  // touched. Stage 2: resolve coordinator-side state lock-free (the
  // coordinator is simulation-thread-owned, like the seed's GetStatus).
  std::vector<SubmissionRecord> recs;
  std::vector<bool> present;
  sessions_.ProjectBatch(
      ids, [](const Session& s) { return s.record; }, &recs, &present);
  std::vector<StatusView> out(ids.size());
  if (found != nullptr) found->assign(ids.size(), false);
  for (size_t i = 0; i < ids.size(); ++i) {
    if (!present[i]) continue;
    if (found != nullptr) (*found)[i] = true;
    const SubmissionRecord& rec = recs[i];
    StatusView& view = out[i];
    view.level = rec.level;
    view.bill_usd = rec.bill_usd;
    if (rec.cancelled) {
      view.state = QueryState::kFailed;
      view.cancelled = true;
      view.error = rec.error;
      view.pending_ms = clock_->Now() - rec.received_time;
      continue;
    }
    if (rec.coordinator_id == 0) {
      view.state = QueryState::kPending;
      view.pending_ms = clock_->Now() - rec.received_time;
      continue;
    }
    const QueryRecord* qrec = coordinator_->GetQuery(rec.coordinator_id);
    if (qrec == nullptr) continue;
    view.state = qrec->state;
    view.used_cf = qrec->used_cf;
    view.mv_hit = qrec->mv_hit;
    view.mv_saved_bytes = qrec->mv_saved_bytes;
    view.error = qrec->error;
    if (qrec->start_time >= 0) {
      view.pending_ms = qrec->start_time - rec.received_time;
    } else {
      view.pending_ms = clock_->Now() - rec.received_time;
    }
    view.execution_ms = qrec->ExecutionTime();
    view.profile = qrec->profile;
  }
  return out;
}

MetricsRegistry QueryServer::MetricsSnapshot() {
  MetricsRegistry out = metrics_;
  out.MergeFrom(coordinator_->MetricsSnapshot());
  slo_.MergeInto(&out, clock_->Now());
  if (const EventLog* log = coordinator_->event_log()) {
    out.SetGauge("event_log_events_total",
                 static_cast<double>(log->total_emitted()));
    out.SetGauge("event_log_dropped", static_cast<double>(log->dropped()));
  }
  out.SetGauge("held_queries_now", static_cast<double>(HeldQueries()));
  out.SetGauge("total_billed_usd", total_billed_);
  out.SetGauge("open_sessions", static_cast<double>(open_sessions_));
  const DispatcherStats& ds = mailbox_.stats();
  out.SetGauge("dispatcher_messages", static_cast<double>(ds.messages));
  out.SetGauge("dispatcher_pumps", static_cast<double>(ds.pumps));
  out.SetGauge("dispatcher_max_batch", static_cast<double>(ds.max_batch));
  out.SetGauge("dispatcher_reentrant_enqueues",
               static_cast<double>(ds.reentrant_enqueues));
  return out;
}

const SubmissionRecord* QueryServer::GetRecord(int64_t server_id) const {
  const Session* sess = sessions_.Find(server_id);
  return sess == nullptr ? nullptr : &sess->record;
}

}  // namespace pixels
