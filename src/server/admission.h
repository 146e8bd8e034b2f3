// SLA-aware admission control and placement for the query server.
//
// Generalizes the seed's two hardcoded service-level gates (relaxed:
// engine concurrency below the VM high watermark; best-of-effort: total
// concurrency below the VM low watermark) into per-level watermark knobs,
// and layers two optional policies on top, shaped after the companion SLA
// paper (arXiv 2409.01388) and *Resource Allocation in Serverless Query
// Processing* (arXiv 2208.09519):
//
//  - Cost-based VM-vs-CF placement: an Immediate query only keeps CF
//    acceleration enabled when the estimated CF burst cost (scan work at
//    the CF unit price + invocation fees) stays within a configured
//    fraction of the query's own $/TB-scan bill. Queries too cheap to
//    justify a fleet fall back to the VM queue instead of burning margin.
//  - Burst-driven deferral/preemption of Best-of-effort work: when
//    Immediate arrivals within a sliding window exceed a threshold, the
//    admission gate for best-effort closes and already-queued (not yet
//    running) best-effort queries are recalled from the coordinator back
//    into the server's hold queue.
//
// With every knob at its default the controller reproduces the seed
// policy decision-for-decision — the dispatcher's pinned bills and
// dispatch times depend on this.
#pragma once

#include <algorithm>
#include <deque>

#include "cloud/pricing.h"
#include "common/sim_clock.h"
#include "server/service_level.h"

namespace pixels {

/// Admission-policy knobs (defaults reproduce the seed policy exactly).
struct AdmissionParams {
  /// Relaxed queries dispatch while ENGINE concurrency (running +
  /// coordinator queue) is below this watermark; negative = use the VM
  /// cluster's high watermark (the seed gate).
  double relaxed_admit_watermark = -1;
  /// Best-of-effort queries dispatch while TOTAL concurrency (running +
  /// queued + relaxed holds) is below this watermark; negative = use the
  /// VM cluster's low watermark (the seed gate).
  double best_effort_admit_watermark = -1;
  /// Cost-based CF placement for Immediate queries (off = seed behavior:
  /// CF always enabled for Immediate).
  bool cost_based_placement = false;
  /// With cost-based placement on: CF stays enabled only while the
  /// estimated CF cost is at most this fraction of the query's bill.
  double cf_bill_fraction_cap = 0.5;
  /// Defer + preempt best-effort work during Immediate bursts.
  bool preempt_best_effort = false;
  /// An Immediate burst = at least `burst_threshold` Immediate arrivals
  /// within the trailing `burst_window`.
  SimTime burst_window = 10 * kSeconds;
  int burst_threshold = 8;
  /// Feedback-driven best-effort watermark: raise the admission gate while
  /// the observed best-effort violation rate burns past its error budget,
  /// decay back toward the static watermark when it recovers. Off = static
  /// watermark (seed behavior). Adaptivity changes *scheduling* only —
  /// per-query results, bytes, and bills are invariant by construction.
  bool adaptive_watermarks = false;
  /// Slots added/removed per adjustment step.
  double adaptive_step = 1.0;
  /// Ceiling for the adaptive watermark, as a multiple of the static base.
  double adaptive_max_factor = 8.0;
  /// Windowed violation-rate threshold that triggers a raise (the error
  /// budget the controller defends).
  double adaptive_target_violation_rate = 0.05;
};

/// Point-in-time load signals the server gathers from the coordinator
/// for each admission decision.
struct AdmissionSignals {
  double engine_concurrency = 0;  // running + coordinator queue
  double total_concurrency = 0;   // + external (relaxed) holds
  double high_watermark = 0;      // VM cluster scale-out watermark
  double low_watermark = 0;       // VM cluster scale-in watermark
  int free_slots = 0;
  size_t queue_depth = 0;
  bool cf_available = false;      // CF service can invoke a default fleet
  double bytes_per_vcpu_second = 100e6;
};

/// Outcome of one admission decision, carrying the values it compared so
/// the audit event log can record *why* (watermark, load, predicted cost).
struct AdmissionDecision {
  bool dispatch = false;    // hand to the coordinator now vs hold
  bool cf_enabled = false;  // CF acceleration flag on the dispatched spec
  /// Policy that produced the decision (span/metric annotation).
  const char* reason = "";
  /// Gate the level was judged against (0 for Immediate: no gate).
  double watermark = 0;
  /// Load signal compared against the gate.
  double concurrency = 0;
  /// Predicted bill at the submitted estimate (actual bill uses scanned
  /// bytes — the audit log records both for predicted-vs-actual).
  double predicted_bill_usd = 0;
  /// Estimated CF burst cost (0 when CF is not available).
  double predicted_cf_cost_usd = 0;
};

/// One adaptive-watermark adjustment (for the audit log / metrics).
struct WatermarkUpdate {
  bool changed = false;
  bool raised = false;
  double old_value = 0;
  double new_value = 0;
};

/// Windowed observations the SLO monitor feeds back into the controller.
struct AdaptiveInputs {
  double violation_rate = 0;    // windowed best-effort violation rate
  double queue_wait_p99_ms = 0; // windowed best-effort queue-wait p99
  double oldest_hold_ms = 0;    // age of the oldest still-held best-effort
  double grace_ms = 0;          // best-effort grace (0 = no deadline)
};

/// Pure policy object: decides dispatch-vs-hold and VM-vs-CF placement
/// from load signals. Owns only the burst-detection window; all queue
/// state stays in the query server. Single-threaded (dispatcher thread).
class AdmissionController {
 public:
  AdmissionController(AdmissionParams params, PriceList prices,
                      PricingModel pricing, int default_cf_workers)
      : params_(params),
        prices_(prices),
        pricing_(pricing),
        default_cf_workers_(default_cf_workers) {}

  /// Records an Immediate arrival for burst detection.
  void NoteImmediateArrival(SimTime now) {
    if (!params_.preempt_best_effort) return;
    arrivals_.push_back(now);
    TrimWindow(now);
  }

  /// True while the trailing window holds a qualifying Immediate burst.
  bool BurstActive(SimTime now) {
    if (!params_.preempt_best_effort) return false;
    TrimWindow(now);
    return static_cast<int>(arrivals_.size()) >= params_.burst_threshold;
  }

  /// Admission decision for a fresh submission.
  AdmissionDecision Decide(ServiceLevel level, uint64_t estimated_bytes,
                           const AdmissionSignals& sig, SimTime now) {
    AdmissionDecision d;
    d.predicted_bill_usd = prices_.Bill(level, estimated_bytes);
    if (sig.cf_available) {
      d.predicted_cf_cost_usd = EstimatedCfCost(estimated_bytes, sig);
    }
    switch (level) {
      case ServiceLevel::kImmediate:
        d.dispatch = true;
        d.cf_enabled = PlaceOnCf(level, estimated_bytes, sig, &d.reason);
        d.concurrency = sig.engine_concurrency;
        break;
      case ServiceLevel::kRelaxed:
        d.dispatch = ShouldReleaseRelaxed(sig);
        d.reason = d.dispatch ? "below-relaxed-watermark" : "held-relaxed";
        d.watermark = RelaxedWatermark(sig);
        d.concurrency = sig.engine_concurrency;
        break;
      case ServiceLevel::kBestEffort:
        d.dispatch = ShouldReleaseBestEffort(sig, now);
        d.reason = d.dispatch ? "below-best-effort-watermark"
                              : (BurstActive(now) ? "held-immediate-burst"
                                                  : "held-best-effort");
        d.watermark = BestEffortWatermark(sig);
        d.concurrency = sig.total_concurrency;
        break;
    }
    return d;
  }

  /// Release gate for held relaxed queries (grace expiry overrides it).
  bool ShouldReleaseRelaxed(const AdmissionSignals& sig) const {
    return sig.engine_concurrency < RelaxedWatermark(sig);
  }

  /// Release gate for held best-effort queries.
  bool ShouldReleaseBestEffort(const AdmissionSignals& sig, SimTime now) {
    if (BurstActive(now)) return false;
    return sig.total_concurrency < BestEffortWatermark(sig);
  }

  double RelaxedWatermark(const AdmissionSignals& sig) const {
    return params_.relaxed_admit_watermark >= 0
               ? params_.relaxed_admit_watermark
               : sig.high_watermark;
  }
  double BestEffortWatermark(const AdmissionSignals& sig) const {
    if (params_.adaptive_watermarks && adaptive_best_effort_ >= 0) {
      return adaptive_best_effort_;
    }
    return StaticBestEffortWatermark(sig);
  }

  /// One adaptive-controller step, driven by the SLO monitor's windows:
  /// raise the best-effort gate while the violation rate is over budget
  /// (or held/queue waits already exceed the grace), decay toward the
  /// static base otherwise. Returns the adjustment for audit logging.
  WatermarkUpdate UpdateAdaptiveWatermark(const AdaptiveInputs& in,
                                          const AdmissionSignals& sig) {
    WatermarkUpdate u;
    if (!params_.adaptive_watermarks) return u;
    const double base = StaticBestEffortWatermark(sig);
    const double ceiling = std::max(base * params_.adaptive_max_factor,
                                    base + params_.adaptive_step);
    const double cur = adaptive_best_effort_ >= 0 ? adaptive_best_effort_ : base;
    const bool over_budget =
        in.violation_rate > params_.adaptive_target_violation_rate ||
        (in.grace_ms > 0 && (in.queue_wait_p99_ms > in.grace_ms ||
                             in.oldest_hold_ms > in.grace_ms));
    const double next =
        over_budget ? std::min(cur + params_.adaptive_step, ceiling)
                    : std::max(cur - params_.adaptive_step, base);
    adaptive_best_effort_ = next;
    u.changed = next != cur;
    u.raised = next > cur;
    u.old_value = cur;
    u.new_value = next;
    return u;
  }

  /// Estimated provider-side cost of bursting `estimated_bytes` of scan
  /// to a default-size CF fleet.
  double EstimatedCfCost(uint64_t estimated_bytes,
                         const AdmissionSignals& sig) const {
    const double work = sig.bytes_per_vcpu_second > 0
                            ? static_cast<double>(estimated_bytes) /
                                  sig.bytes_per_vcpu_second
                            : 0;
    return pricing_.EstimatedCfCost(work, default_cf_workers_);
  }

  const AdmissionParams& params() const { return params_; }

 private:
  double StaticBestEffortWatermark(const AdmissionSignals& sig) const {
    return params_.best_effort_admit_watermark >= 0
               ? params_.best_effort_admit_watermark
               : sig.low_watermark;
  }

  /// VM-vs-CF placement for an Immediate query. Seed behavior (cost-based
  /// placement off): CF always enabled. On: CF only when available and
  /// economical relative to the query's own bill. The flag only engages
  /// when the cluster is saturated, so enabling it eagerly is free.
  bool PlaceOnCf(ServiceLevel level, uint64_t estimated_bytes,
                 const AdmissionSignals& sig, const char** reason) {
    if (!params_.cost_based_placement) {
      *reason = "immediate";
      return true;
    }
    if (!sig.cf_available) {
      *reason = "cf-unavailable";
      return false;
    }
    const double bill = prices_.Bill(level, estimated_bytes);
    const double cf_cost = EstimatedCfCost(estimated_bytes, sig);
    if (cf_cost <= bill * params_.cf_bill_fraction_cap) {
      *reason = "cf-economical";
      return true;
    }
    *reason = "cf-uneconomical";
    return false;
  }

  void TrimWindow(SimTime now) {
    while (!arrivals_.empty() && arrivals_.front() <= now - params_.burst_window) {
      arrivals_.pop_front();
    }
  }

  AdmissionParams params_;
  PriceList prices_;
  PricingModel pricing_;
  int default_cf_workers_;
  std::deque<SimTime> arrivals_;  // Immediate arrivals in the burst window
  /// Current adaptive best-effort watermark (< 0 = not yet initialized;
  /// falls back to the static base).
  double adaptive_best_effort_ = -1;
};

}  // namespace pixels
