// E16 — Admission control & the actor-style dispatcher at scale.
//
// The full run opens 1M+ client sessions, then drives 100k+ queries of
// mixed service levels through the query server under bursty arrivals
// (periodic Immediate spikes on a Poisson base), twice:
//
//   async     — the actor path (MPSC mailbox + pump), default admission,
//   admission — the actor path with cost-based CF placement and
//               burst-triggered best-effort deferral/preemption on.
//
// Reported per run: per-service-level queue-wait p50/p99 (from the
// server's queue_wait_ms histograms), dispatcher traffic, preemption and
// recall counts, and batched-status-poll throughput. Checked invariants:
//
//   * the default-admission run reproduces BIT FOR BIT the bills, scanned
//     bytes, final states, total bill and per-level waits that the
//     synchronous direct-call dispatcher (since removed) recorded for the
//     same schedule (pinned below; the full run's values are the "sync"
//     row of the earlier BENCH_admission.json),
//   * every submission settles exactly once (finished + cancelled ==
//     submitted; nothing stranded),
//   * Immediate queries never wait in the server queue (p99 == 0),
//   * the actor path exchanges >= 2 messages per query (submit +
//     completion),
//   * with preemption on, Immediate bursts actually recall queued
//     best-effort work (full run only; the smoke run just reports).
//
// The full run writes BENCH_admission.json (machine-readable, checked
// in). `--admission-smoke` runs a scaled-down configuration exercising
// the same invariants as the CI Release gate.
#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
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
                       : u < 0.7 ? ServiceLevel::kRelaxed
                                 : ServiceLevel::kBestEffort);
    QuerySpec q;
    q.bytes_to_scan =
        static_cast<uint64_t>(rng.UniformDouble(0.2e9, 2.0e9));
    q.work_vcpu_seconds = static_cast<double>(q.bytes_to_scan) / 200e6;
    s.specs.push_back(q);
  }
  return s;
}

struct LevelStats {
  uint64_t count = 0;
  double p50_ms = 0;
  double p99_ms = 0;
};

struct RunOut {
  std::vector<double> bills;
  std::vector<uint64_t> bytes;
  std::vector<uint8_t> finished;
  size_t settled = 0;
  size_t cancelled = 0;
  double total_billed = 0;
  LevelStats level[3];
  DispatcherStats dstats;
  double preemptions = 0;
  double recalls = 0;
  size_t sessions = 0;
  size_t status_views = 0;
  double wall_ms = 0;
};

/// One end-to-end run: open `n_sessions` client sessions, replay the
/// schedule, poll batched statuses along the way, drain, and collect.
/// The drain must be generous: the seed's best-effort gate (concurrency
/// below the 0.75 low watermark) releases holds one at a time, so a
/// deep best-effort backlog empties serially after traffic stops.
RunOut RunOne(const Schedule& sched, size_t n_sessions,
              const AdmissionParams& admission, int max_vms,
              SimTime drain) {
  const auto wall_start = std::chrono::steady_clock::now();
  SimClock clock;
  Random rng(7);
  CoordinatorParams cparams;
  cparams.vm.initial_vms = 4;
  cparams.vm.slots_per_vm = 4;
  cparams.vm.min_vms = 2;
  cparams.vm.max_vms = max_vms;
  Coordinator coordinator(&clock, &rng, cparams);
  QueryServerParams sparams;
  sparams.session_shards = 64;
  sparams.admission = admission;
  QueryServer server(&clock, &coordinator, sparams);
  coordinator.Start();

  RunOut out;
  // 1M+ sessions up front: the sharded tables must stay tractable, and
  // a slice of them opens and closes again (lifecycle churn).
  std::vector<int64_t> session_ids;
  session_ids.reserve(n_sessions);
  for (size_t i = 0; i < n_sessions; ++i) {
    session_ids.push_back(server.OpenSession());
  }
  for (size_t i = 0; i < n_sessions; i += 20) {  // close 5%
    server.CloseSession(session_ids[i]);
    session_ids[i] = session_ids[(i + 7) % n_sessions];
  }
  out.sessions = server.SessionCount();

  const size_t n = sched.arrivals.size();
  out.bills.assign(n, 0);
  out.bytes.assign(n, 0);
  out.finished.assign(n, 0);
  std::vector<int64_t> server_ids(n, -1);

  for (size_t i = 0; i < n; ++i) {
    clock.ScheduleAt(sched.arrivals[i], [&, i] {
      Submission s;
      s.level = sched.levels[i];
      s.query = sched.specs[i];
      s.session_id = session_ids[(i * 9973) % session_ids.size()];
      server_ids[i] = server.Submit(
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

  // Batched status polling every minute over the most recent 1024
  // submissions — the monitoring read path the sharded tables exist for.
  const SimTime last_arrival = sched.arrivals.empty() ? 0
                                                      : sched.arrivals.back();
  for (SimTime t = 1 * kMinutes; t <= last_arrival; t += 1 * kMinutes) {
    clock.ScheduleAt(t, [&] {
      std::vector<int64_t> ids;
      for (size_t i = n; i > 0 && ids.size() < 1024; --i) {
        if (server_ids[i - 1] > 0) ids.push_back(server_ids[i - 1]);
      }
      if (ids.empty()) return;
      std::vector<bool> found;
      out.status_views += server.GetStatusBatch(ids, &found).size();
    });
  }

  clock.RunUntil(last_arrival + drain);
  for (int l = 0; l < 3; ++l) {
    const Histogram h = server.metrics().GetHistogram(
        std::string("queue_wait_ms{level=\"") + ServiceLevelName(kLevels[l]) +
        "\"}");
    out.level[l].count = h.count();
    out.level[l].p50_ms = h.Quantile(50);
    out.level[l].p99_ms = h.Quantile(99);
  }
  out.total_billed = server.TotalBilledUsd();
  out.dstats = server.dispatcher_stats();
  out.preemptions = server.metrics().Counter("best_effort_preemptions");
  out.recalls = coordinator.metrics().Counter("queries_recalled");
  server.Stop();
  coordinator.Stop();
  clock.RunAll();
  out.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - wall_start)
                    .count();
  return out;
}

/// Outcomes the synchronous dispatcher produced for one schedule.
struct SyncPin {
  size_t queries;
  double total_billed;
  uint64_t digest;  // Digest() of its bills, bytes and final states
  LevelStats level[3];
};

// MakeSchedule(17, 4.0, 30.0, 20 min), 50k sessions, 48 VMs.
constexpr SyncPin kSmokePin = {
    8300, 0x1.2ecfa6c7e06a4p+4, 0x21dabcbd4bf1a8edULL,
    {{2511, 0, 0}, {3336, 300000, 300000},
     {2453, 5707217, 0x1.2cbf00b851eb8p+23}}};
// MakeSchedule(17, 12.0, 60.0, 2 h), 1.05M sessions, 48 VMs.
constexpr SyncPin kFullPin = {
    129145, 0x1.228f006a6ec29p+8, 0x1ab963164936d1a9ULL,
    {{38679, 0, 0}, {51935, 300000, 300000},
     {38531, 80045815, 0x1.20e638d999999p+27}}};

/// FNV-1a over the bit patterns of every per-query outcome.
uint64_t Digest(const RunOut& r) {
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xffu;
      h *= 1099511628211ULL;
    }
  };
  for (size_t i = 0; i < r.bills.size(); ++i) {
    mix(std::bit_cast<uint64_t>(r.bills[i]));
    mix(r.bytes[i]);
    mix(r.finished[i]);
  }
  return h;
}

bool MatchesPin(const RunOut& r, const SyncPin& pin) {
  bool ok = r.bills.size() == pin.queries &&
            r.total_billed == pin.total_billed && Digest(r) == pin.digest;
  for (int l = 0; l < 3; ++l) {
    ok = ok && r.level[l].count == pin.level[l].count &&
         r.level[l].p50_ms == pin.level[l].p50_ms &&
         r.level[l].p99_ms == pin.level[l].p99_ms;
  }
  return ok;
}

void PrintRun(const char* name, const RunOut& r) {
  std::printf("\n--- %s ---\n", name);
  std::printf("sessions=%zu settled=%zu cancelled=%zu billed=$%.2f "
              "status_views=%zu wall=%.0fms\n",
              r.sessions, r.settled, r.cancelled, r.total_billed,
              r.status_views, r.wall_ms);
  std::printf("%-16s %10s %12s %12s\n", "level", "queries", "p50_wait_ms",
              "p99_wait_ms");
  for (int l = 0; l < 3; ++l) {
    std::printf("%-16s %10llu %12.0f %12.0f\n", ServiceLevelName(kLevels[l]),
                static_cast<unsigned long long>(r.level[l].count),
                r.level[l].p50_ms, r.level[l].p99_ms);
  }
  std::printf("dispatcher: messages=%llu pumps=%llu max_batch=%llu "
              "reentrant=%llu preemptions=%.0f recalls=%.0f\n",
              static_cast<unsigned long long>(r.dstats.messages),
              static_cast<unsigned long long>(r.dstats.pumps),
              static_cast<unsigned long long>(r.dstats.max_batch),
              static_cast<unsigned long long>(r.dstats.reentrant_enqueues),
              r.preemptions, r.recalls);
}

/// Shared invariants for one default-admission run plus an admission run.
bool CheckInvariants(const Schedule& sched, const RunOut& async_run,
                     const RunOut& admission, const SyncPin& pin,
                     bool require_preemptions) {
  const size_t n = sched.arrivals.size();
  bool ok = true;
  ok &= Check(MatchesPin(async_run, pin),
              "actor path matches the pinned sync-path bills, bytes, states "
              "and waits");
  ok &= Check(async_run.settled == n && admission.settled == n,
              "every submission settled exactly once");
  ok &= Check(async_run.cancelled == 0,
              "nothing left stranded at Stop() after the drain");
  ok &= Check(async_run.dstats.messages >= 2 * n,
              "async path exchanges >= 2 messages per query");
  ok &= Check(async_run.level[0].p99_ms == 0,
              "immediate queries never wait in the server queue");
  ok &= Check(async_run.level[2].p99_ms >= async_run.level[0].p99_ms,
              "best-effort waits at least as long as immediate");
  if (require_preemptions) {
    ok &= Check(admission.preemptions >= 1 &&
                    admission.recalls >= admission.preemptions,
                "immediate bursts preempted queued best-effort work");
  }
  return ok;
}

/// Admission knobs for the second run: an effectively unbounded
/// best-effort watermark lets best-effort work flow straight into the
/// coordinator's VM queue (total concurrency counts the relaxed hold
/// backlog, so any finite watermark keeps the gate shut under load) —
/// Immediate bursts then claw the queued-but-not-running share back via
/// preemption. The burst threshold sits between the base and spike
/// Immediate arrival counts per window so only real spikes trip it.
AdmissionParams AdvancedAdmission(int burst_threshold) {
  AdmissionParams ap;
  ap.cost_based_placement = true;
  ap.preempt_best_effort = true;
  ap.best_effort_admit_watermark = 1e12;
  ap.burst_window = 10 * kSeconds;
  ap.burst_threshold = burst_threshold;
  return ap;
}

int RunFull(const char* out_path) {
  std::printf("=== E16: admission control & async dispatcher at scale ===\n");
  // ~121k queries: 12/s base + 60/s spikes (1 min every 10) over 2 h.
  const Schedule sched = MakeSchedule(17, 12.0, 60.0, 2 * kHours);
  constexpr size_t kSessions = 1'050'000;
  std::printf("schedule: %zu queries over %.0f min, %zu sessions\n",
              sched.arrivals.size(),
              static_cast<double>(sched.arrivals.back()) / kMinutes,
              kSessions);

  const RunOut async_run = RunOne(sched, kSessions, {}, 48, 48 * kHours);
  PrintRun("async (actor path)", async_run);
  // Base Immediate traffic ~36 arrivals per 10 s window, spikes ~180:
  // threshold 80 trips on spikes only. The admission run gets a smaller
  // fleet (8 VMs = 32 slots) so spikes saturate the slots and dispatched
  // best-effort work actually sits in the recallable coordinator queue.
  const RunOut admission =
      RunOne(sched, kSessions, AdvancedAdmission(80), 8, 48 * kHours);
  PrintRun("async + cost placement + preemption", admission);

  const bool ok = CheckInvariants(sched, async_run, admission, kFullPin,
                                  /*require_preemptions=*/true);

  FILE* f = std::fopen(out_path, "w");
  if (f != nullptr) {
    std::fprintf(f, "{\n  \"bench\": \"admission\",\n");
    std::fprintf(f, "  \"queries\": %zu,\n", sched.arrivals.size());
    std::fprintf(f, "  \"sessions\": %zu,\n", kSessions);
    std::fprintf(f, "  \"matches_sync_pin\": %s,\n",
                 MatchesPin(async_run, kFullPin) ? "true" : "false");
    std::fprintf(f, "  \"total_billed_usd\": %.6f,\n",
                 async_run.total_billed);
    const RunOut* runs[] = {&async_run, &admission};
    const char* names[] = {"async", "admission"};
    std::fprintf(f, "  \"runs\": [\n");
    for (int r = 0; r < 2; ++r) {
      std::fprintf(
          f,
          "    {\"mode\": \"%s\", \"settled\": %zu, \"cancelled\": %zu, "
          "\"dispatcher_messages\": %llu, \"pumps\": %llu, "
          "\"max_batch\": %llu, \"preemptions\": %.0f, \"recalls\": %.0f, "
          "\"wait_ms\": {",
          names[r], runs[r]->settled, runs[r]->cancelled,
          static_cast<unsigned long long>(runs[r]->dstats.messages),
          static_cast<unsigned long long>(runs[r]->dstats.pumps),
          static_cast<unsigned long long>(runs[r]->dstats.max_batch),
          runs[r]->preemptions, runs[r]->recalls);
      for (int l = 0; l < 3; ++l) {
        std::fprintf(f, "\"%s\": {\"n\": %llu, \"p50\": %.0f, \"p99\": %.0f}%s",
                     ServiceLevelName(kLevels[l]),
                     static_cast<unsigned long long>(runs[r]->level[l].count),
                     runs[r]->level[l].p50_ms, runs[r]->level[l].p99_ms,
                     l < 2 ? ", " : "");
      }
      std::fprintf(f, "}}%s\n", r < 1 ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"overall\": \"%s\"\n}\n", ok ? "PASS" : "FAIL");
    std::fclose(f);
    std::printf("\nwrote %s\n", out_path);
  }

  std::printf("\nE16 overall: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

int RunSmoke() {
  std::printf("=== E16 smoke: pinned dispatcher outcomes + admission ===\n");
  // ~6k queries, 50k sessions: every invariant, Release-gate sized.
  const Schedule sched = MakeSchedule(17, 4.0, 30.0, 20 * kMinutes);
  constexpr size_t kSessions = 50'000;
  std::printf("schedule: %zu queries, %zu sessions\n", sched.arrivals.size(),
              kSessions);
  const RunOut async_run = RunOne(sched, kSessions, {}, 48, 6 * kHours);
  // Base ~12 Immediate arrivals per window, spikes ~90: threshold 40.
  const RunOut admission =
      RunOne(sched, kSessions, AdvancedAdmission(40), 8, 6 * kHours);
  PrintRun("async", async_run);
  PrintRun("admission", admission);
  const bool ok = CheckInvariants(sched, async_run, admission, kSmokePin,
                                  /*require_preemptions=*/false);
  std::printf("E16 smoke: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = "BENCH_admission.json";
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--admission-smoke") == 0) smoke = true;
    if (std::strncmp(argv[i], "--out=", 6) == 0) out_path = argv[i] + 6;
  }
  return smoke ? RunSmoke() : RunFull(out_path);
}
