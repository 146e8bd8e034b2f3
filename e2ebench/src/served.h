// Plumbing shared by the two served workloads (served_mix, control_plane):
// advancing the SimClock with or without per-event spans, the snapshot of
// server, cloud and clock observables at the deadline, the virtual-time
// metrics users see, and the settlement checks.
#pragma once

#include <vector>

#include "harness.h"
#include "server/query_server.h"

namespace e2e {

/// What the user saw of one submission.
struct Settlement {
  int settles = 0;  // times it settled; exactly 1 when correct
  bool finished = false;
  bool cancelled = false;
  pixels::ServiceLevel level = pixels::ServiceLevel::kImmediate;
  pixels::SimTime received = 0;
  pixels::SimTime start = -1;
  pixels::SimTime finish = -1;
  double bill = 0;
  uint64_t result_digest = 0;  // 0 when the submission carries no SQL
};

/// Server, cloud and clock observables of one replay.
struct ServedStats {
  double wall_s = 0;
  size_t sim_events = 0;  // counted in traced replays only
  pixels::SloReport slo;
  double vm_cost = 0;
  double cf_cost = 0;
  int scale_out_events = 0;
  double peak_vms = 0;
  pixels::DispatcherStats dispatcher;
  double preemptions = 0;
  double recalls = 0;
};

/// Runs `clock` up to `deadline`. Untraced: SimClock::RunUntil. Traced:
/// one SimClock::Step per event, each in a "common.sim_step" span, up to
/// the same deadline; `*step_span` holds the open step's span id so calls
/// made inside the event can name it as their parent. Fills `wall_s` and
/// `sim_events`.
void AdvanceTo(pixels::SimClock* clock, pixels::SimTime deadline,
               SpanLog* spans, uint32_t* step_span, ServedStats* stats);

/// Fills the server, cloud and SLO observables (call at the deadline).
void Snapshot(pixels::QueryServer* server, pixels::Coordinator* coordinator,
              ServedStats* stats);

/// Stops the server and the coordinator and drains the clock.
void Shutdown(pixels::SimClock* clock, pixels::QueryServer* server,
              pixels::Coordinator* coordinator);

/// The virtual-time view of one replay.
struct VirtualMetrics {
  size_t attempted = 0;
  size_t settled = 0;
  size_t failed = 0;  // failed, cancelled, refused or not settled once
  double slo_violation_ratio = 0;
  double latency_p50[3] = {0, 0, 0};
  double latency_tail[3] = {0, 0, 0};
  double tail_pct[3] = {0, 0, 0};
  size_t latency_n[3] = {0, 0, 0};
  double bill_per_query = 0;
  double cost_per_query = 0;
  /// Folds every submission's level, times, bill, outcome and result
  /// digest, plus the provider costs: equal digests mean equal replays.
  uint64_t digest = kDigestSeed;
};

/// `levels[i]` is the level arrival i was submitted at. Immediate must
/// start at once and Relaxed within `relaxed_grace`.
VirtualMetrics ComputeVirtual(const std::vector<pixels::ServiceLevel>& levels,
                              const std::vector<Settlement>& settlements,
                              pixels::SimTime relaxed_grace,
                              const ServedStats& stats);

void AddVirtualMetrics(const VirtualMetrics& v, Report* report);

/// Counts wrong settlements: a submission that did not settle exactly
/// once or settled at another level, and a level whose SloReport does not
/// add up (met + violated + excluded == settled == the count seen here).
/// `submitted[i]` is false for arrivals that never reached the server.
size_t CheckSettlements(const std::vector<pixels::ServiceLevel>& levels,
                        const std::vector<Settlement>& settlements,
                        const std::vector<bool>& submitted,
                        const pixels::SloReport& slo);

/// Adds the cloud, server and common per-layer metrics of a traced replay.
void AddServedLayerMetrics(const ServedStats& stats, const SpanLog& spans,
                           size_t settled, Report* report);

}  // namespace e2e
