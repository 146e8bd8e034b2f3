// E17 — SLO compliance monitoring & adaptive best-effort watermarks.
//
// Bursty traffic (Poisson base + periodic Immediate spikes) is driven
// through the query server with a best-effort time-to-start grace of
// 2 minutes, four times:
//
//   static      — static best-effort watermark, event log off,
//   static+log  — same knobs with the admission audit log on (twice, to
//                 compare exports byte-for-byte),
//   adaptive    — adaptive watermarks fed by the SLO monitor's sliding
//                 windows, event log on.
//
// With the static gate, held best-effort work is invisible to the
// autoscaler and waits out the Immediate spikes; violations pile up.
// The adaptive controller raises the gate while the windowed violation
// rate is over budget (or holds outlive the grace), the backlog becomes
// visible queue depth, the cluster scales out, and time-to-start drops.
//
// Checked invariants:
//
//   * SLO exactness: per level `met + violated + excluded == settled`,
//     and every submission settles exactly once with nothing cancelled,
//   * the event log is an observer: bills/bytes/states are identical
//     with the log on or off, and two identical runs export
//     byte-identical JSONL,
//   * adaptive watermarks re-time work but never re-price it:
//     bills/bytes identical to the static run,
//   * (full run) adaptive cuts the best-effort violation rate vs the
//     static gate on the same trace.
//
// The full run writes BENCH_slo.json (checked in). `--slo-smoke` runs a
// scaled-down configuration as the CI Release gate.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/event_log.h"
#include "workload/arrivals.h"

using namespace pixels;
using namespace pixels::bench;

namespace {

constexpr ServiceLevel kLevels[] = {ServiceLevel::kImmediate,
                                    ServiceLevel::kRelaxed,
                                    ServiceLevel::kBestEffort};

struct Schedule {
  std::vector<SimTime> arrivals;
  std::vector<QuerySpec> specs;
  std::vector<ServiceLevel> levels;
};

/// Bursty traffic: Poisson base load with periodic Immediate-heavy
/// spikes, seeded so every run replays the identical trace.
Schedule MakeSchedule(uint64_t seed, double base_rate, double spike_rate,
                      SimTime duration) {
  Random rng(seed);
  Schedule s;
  s.arrivals = PeriodicSpikeArrivals(&rng, base_rate, spike_rate,
                                     /*period=*/10 * kMinutes,
                                     /*spike_len=*/1 * kMinutes, duration);
  s.specs.reserve(s.arrivals.size());
  s.levels.reserve(s.arrivals.size());
  for (size_t i = 0; i < s.arrivals.size(); ++i) {
    const double u = rng.NextDouble();
    s.levels.push_back(u < 0.3 ? ServiceLevel::kImmediate
                       : u < 0.6 ? ServiceLevel::kRelaxed
                                 : ServiceLevel::kBestEffort);
    QuerySpec q;
    q.bytes_to_scan =
        static_cast<uint64_t>(rng.UniformDouble(0.2e9, 2.0e9));
    q.work_vcpu_seconds = static_cast<double>(q.bytes_to_scan) / 200e6;
    s.specs.push_back(q);
  }
  return s;
}

struct RunOut {
  std::vector<double> bills;
  std::vector<uint64_t> bytes;
  std::vector<uint8_t> finished;
  size_t settled = 0;
  size_t cancelled = 0;
  double total_billed = 0;
  double vm_cost = 0;
  SloReport report;
  std::string event_log_lines;
  size_t event_log_events = 0;
  double watermark_raises = 0;
  double wall_ms = 0;
};

RunOut RunOne(const Schedule& sched, bool adaptive, bool with_log,
              SimTime drain) {
  const auto wall_start = std::chrono::steady_clock::now();
  SimClock clock;
  Random rng(7);
  CoordinatorParams cparams;
  cparams.vm.initial_vms = 4;
  cparams.vm.slots_per_vm = 4;
  cparams.vm.min_vms = 2;
  cparams.vm.max_vms = 16;
  if (with_log) cparams.event_log_capacity = 1u << 20;
  Coordinator coordinator(&clock, &rng, cparams);
  QueryServerParams sparams;
  sparams.slo.best_effort_grace = 2 * kMinutes;
  sparams.admission.adaptive_watermarks = adaptive;
  // The static base is the cluster-idle threshold (0.75 queries), so the
  // default ceiling (8x base = 6 concurrent queries) cannot cover a
  // 64-slot fleet. Let the controller climb to ~96 in 4-slot steps; the
  // decay path returns to the same 0.75 base either way.
  sparams.admission.adaptive_step = 4.0;
  sparams.admission.adaptive_max_factor = 128.0;
  QueryServer server(&clock, &coordinator, sparams);
  coordinator.Start();

  RunOut out;
  const int64_t session = server.OpenSession();
  const size_t n = sched.arrivals.size();
  out.bills.assign(n, 0);
  out.bytes.assign(n, 0);
  out.finished.assign(n, 0);

  for (size_t i = 0; i < n; ++i) {
    clock.ScheduleAt(sched.arrivals[i], [&, i] {
      Submission s;
      s.level = sched.levels[i];
      s.query = sched.specs[i];
      s.session_id = session;
      server.Submit(
          std::move(s),
          [&, i](const SubmissionRecord& srec, const QueryRecord& qrec) {
            ++out.settled;
            out.bills[i] = srec.bill_usd;
            out.bytes[i] = qrec.bytes_scanned;
            out.finished[i] = qrec.state == QueryState::kFinished ? 1 : 0;
            if (srec.cancelled) ++out.cancelled;
          });
    });
  }

  clock.RunUntil(sched.arrivals.back() + drain);
  out.report = server.SloReport();
  out.total_billed = server.TotalBilledUsd();
  out.vm_cost = coordinator.TotalVmCostUsd();
  out.watermark_raises = server.metrics().Counter("adaptive_watermark_raises");
  server.Stop();
  coordinator.Stop();
  clock.RunAll();
  if (with_log && coordinator.event_log() != nullptr) {
    out.event_log_lines = coordinator.event_log()->ToJsonLines();
    out.event_log_events = coordinator.event_log()->size();
  }
  out.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - wall_start)
                    .count();
  return out;
}

/// Per-query bills/bytes/states must match exactly. The billed total is
/// deliberately not compared across modes: it is a running double sum in
/// settle order, and re-timing work reorders the additions.
bool SameBillsAndBytes(const RunOut& a, const RunOut& b) {
  return a.bills == b.bills && a.bytes == b.bytes && a.finished == b.finished;
}

/// violated / (met + violated); 0 when nothing scored.
double ViolationRate(const SloLevelReport& l) {
  const uint64_t scored = l.met + l.violated;
  return scored == 0 ? 0.0
                     : static_cast<double>(l.violated) /
                           static_cast<double>(scored);
}

void PrintRun(const char* name, const RunOut& r) {
  std::printf("\n--- %s ---\n", name);
  std::printf("settled=%zu cancelled=%zu billed=$%.2f vm_cost=$%.2f "
              "watermark_raises=%.0f events=%zu wall=%.0fms\n",
              r.settled, r.cancelled, r.total_billed, r.vm_cost,
              r.watermark_raises, r.event_log_events, r.wall_ms);
  std::printf("%-12s %8s %8s %8s %8s %10s %10s %12s\n", "level", "settled",
              "met", "violated", "excl", "compliance", "viol_rate",
              "p99_wait_ms");
  for (ServiceLevel level : kLevels) {
    const SloLevelReport& l = r.report.Level(level);
    std::printf("%-12s %8llu %8llu %8llu %8llu %10.4f %10.4f %12.0f\n",
                ServiceLevelName(level),
                static_cast<unsigned long long>(l.settled),
                static_cast<unsigned long long>(l.met),
                static_cast<unsigned long long>(l.violated),
                static_cast<unsigned long long>(l.excluded), l.compliance,
                ViolationRate(l), l.window_queue_wait_p99_ms);
  }
}

bool CheckInvariants(const Schedule& sched, const RunOut& st,
                     const RunOut& st_log, const RunOut& st_log2,
                     const RunOut& ad, bool require_improvement) {
  const size_t n = sched.arrivals.size();
  bool ok = true;
  for (const auto* r : {&st, &st_log, &ad}) {
    for (ServiceLevel level : kLevels) {
      const SloLevelReport& l = r->report.Level(level);
      ok &= Check(l.met + l.violated + l.excluded == l.settled,
                  "SLO exactness: met + violated + excluded == settled");
    }
  }
  ok &= Check(st.settled == n && st_log.settled == n && ad.settled == n,
              "every submission settled exactly once");
  ok &= Check(st.cancelled == 0 && st_log.cancelled == 0 && ad.cancelled == 0,
              "nothing cancelled after the full drain");
  ok &= Check(SameBillsAndBytes(st, st_log),
              "event log is an observer: bills/bytes/states unchanged");
  ok &= Check(!st_log.event_log_lines.empty() &&
                  st_log.event_log_lines == st_log2.event_log_lines,
              "identical runs export byte-identical event logs");
  ok &= Check(SameBillsAndBytes(st, ad),
              "adaptive watermarks never re-price: bills/bytes identical");
  ok &= Check(ad.watermark_raises >= 1,
              "adaptive controller actually raised the gate under spikes");
  const double sv = ViolationRate(st.report.Level(ServiceLevel::kBestEffort));
  const double av = ViolationRate(ad.report.Level(ServiceLevel::kBestEffort));
  std::printf("\nbest-effort violation rate: static=%.4f adaptive=%.4f\n",
              sv, av);
  if (require_improvement) {
    ok &= Check(av < sv,
                "adaptive cuts the best-effort violation rate vs static");
  }
  return ok;
}

void WriteJson(const char* out_path, const Schedule& sched, const RunOut& st,
               const RunOut& st_log, const RunOut& ad, bool ok) {
  FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) return;
  std::fprintf(f, "{\n  \"bench\": \"slo\",\n");
  std::fprintf(f, "  \"queries\": %zu,\n", sched.arrivals.size());
  std::fprintf(f, "  \"best_effort_grace_ms\": %lld,\n",
               static_cast<long long>(2 * kMinutes));
  std::fprintf(f, "  \"event_log_observer_identical\": %s,\n",
               SameBillsAndBytes(st, st_log) ? "true" : "false");
  std::fprintf(f, "  \"adaptive_bills_identical\": %s,\n",
               SameBillsAndBytes(st, ad) ? "true" : "false");
  const RunOut* runs[] = {&st, &ad};
  const char* names[] = {"static", "adaptive"};
  std::fprintf(f, "  \"runs\": [\n");
  for (int r = 0; r < 2; ++r) {
    std::fprintf(f,
                 "    {\"mode\": \"%s\", \"settled\": %zu, "
                 "\"billed_usd\": %.6f, \"vm_cost_usd\": %.6f, "
                 "\"watermark_raises\": %.0f, \"levels\": {",
                 names[r], runs[r]->settled, runs[r]->total_billed,
                 runs[r]->vm_cost, runs[r]->watermark_raises);
    for (int l = 0; l < 3; ++l) {
      const SloLevelReport& lr = runs[r]->report.Level(kLevels[l]);
      std::fprintf(f,
                   "\"%s\": {\"settled\": %llu, \"met\": %llu, "
                   "\"violated\": %llu, \"excluded\": %llu, "
                   "\"violation_rate\": %.6f}%s",
                   ServiceLevelName(kLevels[l]),
                   static_cast<unsigned long long>(lr.settled),
                   static_cast<unsigned long long>(lr.met),
                   static_cast<unsigned long long>(lr.violated),
                   static_cast<unsigned long long>(lr.excluded),
                   ViolationRate(lr), l < 2 ? ", " : "");
    }
    std::fprintf(f, "}}%s\n", r < 1 ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"overall\": \"%s\"\n}\n", ok ? "PASS" : "FAIL");
  std::fclose(f);
  std::printf("\nwrote %s\n", out_path);
}

int RunConfigured(const char* title, const Schedule& sched, SimTime drain,
                  bool require_improvement, const char* out_path) {
  std::printf("=== %s ===\n", title);
  std::printf("schedule: %zu queries over %.0f min\n", sched.arrivals.size(),
              static_cast<double>(sched.arrivals.back()) / kMinutes);

  const RunOut st = RunOne(sched, /*adaptive=*/false, /*with_log=*/false,
                           drain);
  PrintRun("static (no event log)", st);
  const RunOut st_log = RunOne(sched, /*adaptive=*/false, /*with_log=*/true,
                               drain);
  PrintRun("static + event log", st_log);
  const RunOut st_log2 = RunOne(sched, /*adaptive=*/false, /*with_log=*/true,
                                drain);
  const RunOut ad = RunOne(sched, /*adaptive=*/true, /*with_log=*/true,
                           drain);
  PrintRun("adaptive watermarks", ad);

  const bool ok =
      CheckInvariants(sched, st, st_log, st_log2, ad, require_improvement);
  if (out_path != nullptr) WriteJson(out_path, sched, st, st_log, ad, ok);
  std::printf("\nE17 overall: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = "BENCH_slo.json";
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--slo-smoke") == 0) smoke = true;
    if (std::strncmp(argv[i], "--out=", 6) == 0) out_path = argv[i] + 6;
  }
  if (smoke) {
    // ~2k queries over 15 min: every invariant except the violation-rate
    // improvement (too little traffic for a stable comparison).
    return RunConfigured("E17 smoke: SLO monitor & adaptive watermarks (CI)",
                         MakeSchedule(23, 1.5, 12.0, 15 * kMinutes),
                         /*drain=*/12 * kHours,
                         /*require_improvement=*/false, nullptr);
  }
  // ~17k queries: 1.5/s base + 12/s spikes (1 min every 10) over 2 h —
  // spikes overload the fleet briefly; the base load leaves slack.
  return RunConfigured("E17: SLO compliance & adaptive watermarks",
                       MakeSchedule(23, 1.5, 12.0, 2 * kHours),
                       /*drain=*/48 * kHours,
                       /*require_improvement=*/true, out_path);
}
