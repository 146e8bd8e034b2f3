// The Query Server (paper §3.2): receives queries from clients (e.g.
// Pixels-Rover), schedules them at the requested service level, and bills
// per TB scanned.
//
//  - Immediate: submitted to the coordinator at once with CF enabled
//    (or, with cost-based placement on, CF only when economical).
//  - Relaxed: submitted with CF disabled when VM concurrency is below the
//    relaxed watermark; otherwise held in the server queue until capacity
//    appears or the grace period expires (then submitted anyway — the
//    coordinator queues it for VMs, still without CF).
//  - Best-of-effort: only submitted when VM concurrency is below the
//    best-effort watermark; no pending-time guarantee. During Immediate
//    bursts it can additionally be deferred and preempted (recalled from
//    the coordinator queue) when the admission policy says so.
//
// Internally the server is an actor: submissions, completions, and poll
// ticks are messages through an MPSC mailbox drained by a run-to-
// completion pump on the simulation thread, and per-submission state
// lives in sharded tables (stable node pointers, per-shard locks) so
// millions of sessions stay tractable and batched status polls do not
// serialize against the dispatcher. Handlers never nest, so a finish
// callback may Submit again, and the same arrival schedule always yields
// the same results, bytes_scanned, and bills.
#pragma once

#include <deque>
#include <string>
#include <vector>

#include "server/admission.h"
#include "server/dispatcher.h"
#include "server/service_level.h"
#include "server/session_shard.h"
#include "server/slo_monitor.h"
#include "server/submission.h"
#include "turbo/coordinator.h"

namespace pixels {

/// Query-server configuration.
struct QueryServerParams {
  PriceList prices;
  /// Grace period for relaxed queries (paper example: 5 minutes).
  SimTime relaxed_grace_period = 5 * kMinutes;
  /// Interval at which held queries re-check cluster load.
  SimTime poll_interval = 2 * kSeconds;
  /// Cap on result rows returned to clients (the submission form's
  /// result-size limit; 0 = unlimited).
  int64_t default_result_limit = 0;
  /// Fraction of the scan price billed for bytes a materialized-view hit
  /// avoided scanning. Reused results are discounted, not free: the bill
  /// for a full hit is this fraction of the original query's bill, which
  /// keeps revenue auditable against `mv_saved_bytes`.
  double mv_reuse_bill_fraction = 0.1;
  /// Shards of the submission/session tables (rounded up to a power of
  /// two). More shards = less lock contention for concurrent status
  /// reads against millions of entries.
  int session_shards = 16;
  /// Admission-control policy (defaults reproduce the seed gates).
  AdmissionParams admission;
  /// SLA compliance monitor knobs (window span, per-level graces, error
  /// budget). `slo.relaxed_grace < 0` inherits `relaxed_grace_period`.
  SloParams slo;
  /// When set, Stop() exports the coordinator's audit event log as JSON
  /// lines to this path (requires `event_log_capacity > 0` or an external
  /// log on the coordinator).
  std::string event_log_path;
};

/// The serverless query frontend.
class QueryServer {
 public:
  QueryServer(SimClock* clock, Coordinator* coordinator,
              QueryServerParams params = {});

  /// Stops the server: cancels the polling loop (lets SimClock::RunAll
  /// terminate) and fails every still-held query with an explicit
  /// cancelled status — callbacks fire, hold spans end, and the
  /// `submissions_cancelled` metric counts them. Queries already at the
  /// coordinator keep running and settle normally.
  void Stop();

  using FinishCallback = ::pixels::FinishCallback;

  /// Accepts a query at a service level. `on_finish` fires with both the
  /// server-side record (incl. the bill) and the engine-side record.
  /// Returns -1 (no record created, callback never fires) once the
  /// server has been stopped.
  int64_t Submit(Submission submission, FinishCallback on_finish = nullptr);

  /// Opens a client session; submissions carrying the returned id
  /// aggregate per-session counters (queries, bills) in the sharded
  /// session table. Sessions are cheap: opening a million is expected.
  int64_t OpenSession();
  /// Marks a session closed. Returns false for unknown/already-closed.
  bool CloseSession(int64_t session_id);
  /// Stable pointer into the session table (null when unknown).
  const ClientSession* GetSession(int64_t session_id) const;
  size_t OpenSessions() const { return open_sessions_; }
  size_t SessionCount() const { return client_sessions_.Size(); }

  /// Combined view of one submission's status (pending covers both the
  /// server hold queue and the coordinator queue).
  struct StatusView {
    QueryState state = QueryState::kPending;
    ServiceLevel level = ServiceLevel::kImmediate;
    SimTime pending_ms = -1;
    SimTime execution_ms = -1;
    double bill_usd = 0;
    bool used_cf = false;
    bool mv_hit = false;
    uint64_t mv_saved_bytes = 0;
    /// Cancelled while held (server stopped); state reads kFailed.
    bool cancelled = false;
    std::string error;
    /// EXPLAIN ANALYZE report of the real execution (empty unless the
    /// coordinator ran with trace_level=full).
    std::string profile;
  };
  Result<StatusView> GetStatus(int64_t server_id) const;

  /// Batched status poll: one lock acquisition per session shard touched
  /// instead of one per id. `found[i]` is false for unknown ids (their
  /// view is default-constructed).
  std::vector<StatusView> GetStatusBatch(const std::vector<int64_t>& ids,
                                         std::vector<bool>* found) const;

  const SubmissionRecord* GetRecord(int64_t server_id) const;

  /// Queries currently held by the server (not yet at the coordinator).
  size_t HeldQueries() const {
    return relaxed_held_.size() + best_effort_held_.size();
  }

  double TotalBilledUsd() const { return total_billed_; }
  Coordinator* coordinator() const { return coordinator_; }
  const QueryServerParams& params() const { return params_; }
  MetricsRegistry& metrics() { return metrics_; }
  const DispatcherStats& dispatcher_stats() const { return mailbox_.stats(); }
  const AdmissionController& admission() const { return admission_; }

  /// Per-level SLA compliance report: met/violated/excluded counts,
  /// compliance ratio, windowed violation rate, margin stats, and the
  /// rolling error budget. Exact: `met + violated + excluded == settled`
  /// for every level, every run. (Qualified return type: the member name
  /// shadows the struct inside this class scope.)
  ::pixels::SloReport SloReport();

  /// Everything in one registry: the server's own counters and
  /// per-service-level histograms (queue_wait_ms{level=...},
  /// query_latency_ms{level=...}) merged with the coordinator's snapshot
  /// (VM/CF/cache/MV/storage). ToPrometheusText() on the result is the
  /// system's scrape endpoint.
  MetricsRegistry MetricsSnapshot();

 private:
  /// Per-submission actor state. The SubmissionRecord pointer handed out
  /// by GetRecord aliases `record`, which is stable for the submission's
  /// lifetime (node-based shard maps).
  struct Session {
    SubmissionRecord record;
    /// The spec while not at the coordinator (fresh or recalled).
    QuerySpec spec;
    bool has_spec = false;
    int64_t result_limit = 0;
    /// queue_wait_ms is observed once, at the first dispatch.
    bool wait_observed = false;
    /// Predicted costs from the admission decision, echoed in the
    /// `query.settle` audit event next to the actual bill.
    double predicted_bill = 0;
    double predicted_cf_cost = 0;
    FinishCallback callback;
  };

  struct Held {
    int64_t server_id;
    SimTime deadline;        // grace-period expiry (relaxed only)
    uint64_t hold_span = 0;  // "hold" span while in the server queue
  };

  /// Routes a message: mailbox push + immediate pump (re-entrant pushes
  /// are absorbed by the active pump).
  void Enqueue(ServerMessage msg);
  void HandleMessage(ServerMessage&& msg);
  void HandleSubmit(int64_t server_id);
  void HandleCompletion(int64_t server_id, const QueryRecord& qrec);
  void HandlePoll();

  /// Point-in-time load signals for one admission decision.
  AdmissionSignals Signals() const;
  /// Publishes both hold-queue depths to the coordinator (relaxed →
  /// autoscaling backlog; best-effort → scale-in-blocking deferred
  /// signal).
  void UpdateExternalPending();
  /// Fails a held query with cancelled status: zero bill, callback with
  /// a synthetic failed QueryRecord, spans closed, metrics counted.
  void CancelHeld(const Held& held, Tracer* tracer);
  /// Recalls coordinator-queued best-effort queries back into the hold
  /// queue (burst preemption). Returns the number recalled.
  size_t PreemptQueuedBestEffort(Tracer* tracer);

  /// The coordinator's tracer when tracing is on, else null, and its
  /// audit event log (null = off). Both sync every virtual-time mirror
  /// through Coordinator::SyncObservability as a side effect (always
  /// called on the simulation thread; the server shares the
  /// coordinator's clock).
  Tracer* SyncedTracer();
  EventLog* SyncedLog();
  /// Feeds the windowed best-effort violation rate / queue-wait p99 /
  /// oldest-hold age into the admission controller's adaptive watermark
  /// (no-op unless `admission.adaptive_watermarks`).
  void MaybeUpdateAdaptiveWatermark(SimTime now);
  /// (Re)schedules the next poll at `min(poll_interval, nearest relaxed
  /// deadline - now)`, so a grace-period expiry dispatches at its exact
  /// virtual time instead of overshooting by up to one poll interval. An
  /// already-scheduled later poll is cancelled and pulled forward.
  void SchedulePoll();
  void DispatchToCoordinator(int64_t server_id, bool cf_enabled);

  SimClock* clock_;
  Coordinator* coordinator_;
  QueryServerParams params_;
  AdmissionController admission_;

  int64_t next_id_ = 1;
  int64_t next_session_id_ = 1;
  ShardedTable<Session> sessions_;
  ShardedTable<ClientSession> client_sessions_;
  size_t open_sessions_ = 0;
  std::deque<Held> relaxed_held_;
  std::deque<Held> best_effort_held_;
  /// Best-effort queries dispatched to the coordinator, kept while they
  /// may still be waiting in its VM queue (preemption candidates).
  std::vector<int64_t> dispatched_best_effort_;
  ServerMailbox mailbox_;
  bool polling_ = false;
  uint64_t poll_event_ = 0;
  SimTime poll_fire_time_ = 0;  // virtual time of the scheduled poll
  bool stopped_ = false;
  double total_billed_ = 0;
  MetricsRegistry metrics_;
  SloMonitor slo_;
};

}  // namespace pixels
