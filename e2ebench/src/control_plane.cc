// control_plane: the shape of E16. About 1.05M client sessions, opened
// during set-up, receive submissions that carry no SQL and are costed by
// the cost model. Arrivals follow periodic spikes, status polls are
// batched, and cost-based placement, burst preemption and adaptive
// watermarks are on. The server actor, its mailbox, the session shards,
// admission and the SimClock do all the work; exec and format do none, so
// engine changes should not move this workload.
#include <algorithm>
#include <cstdio>
#include <memory>

#include "harness.h"
#include "served.h"
#include "workload/arrivals.h"

namespace e2e {
namespace {

using namespace pixels;

constexpr size_t kSessions = 1'050'000;
constexpr SimTime kTraceLength = 5 * kHours;
constexpr double kBaseRate = 6.0;  // submissions per virtual second
constexpr double kSpikeRate = 40.0;
constexpr SimTime kPeriod = 10 * kMinutes;
constexpr SimTime kSpikeLen = 1 * kMinutes;
constexpr SimTime kDrain = 6 * kHours;
constexpr SimTime kRelaxedGrace = 5 * kMinutes;
constexpr SimTime kPollEvery = 1 * kMinutes;
constexpr size_t kPollBatch = 1024;

struct Arrival {
  SimTime at = 0;
  ServiceLevel level = ServiceLevel::kImmediate;
  uint64_t bytes = 0;
};

/// Periodic spikes over `duration`, levels 30/40/30, scan sizes 0.2-2 GB.
std::vector<Arrival> MakeTrace(uint64_t seed, SimTime duration) {
  Random rng(seed * 0x9E3779B97F4A7C15ULL + 5);
  const std::vector<SimTime> times = PeriodicSpikeArrivals(
      &rng, kBaseRate, kSpikeRate, kPeriod, kSpikeLen, duration);
  std::vector<Arrival> trace(times.size());
  for (size_t i = 0; i < times.size(); ++i) {
    trace[i].at = times[i];
    const double u = rng.NextDouble();
    trace[i].level = u < 0.3   ? ServiceLevel::kImmediate
                     : u < 0.7 ? ServiceLevel::kRelaxed
                               : ServiceLevel::kBestEffort;
    trace[i].bytes = static_cast<uint64_t>(rng.UniformDouble(0.2e9, 2.0e9));
  }
  return trace;
}

CoordinatorParams MakeCoordinatorParams() {
  CoordinatorParams p;
  p.vm.initial_vms = 4;
  p.vm.slots_per_vm = 4;
  p.vm.min_vms = 2;
  p.vm.max_vms = 16;
  return p;
}

QueryServerParams MakeServerParams() {
  QueryServerParams p;
  p.relaxed_grace_period = kRelaxedGrace;
  p.session_shards = 64;
  p.slo.best_effort_grace = 2 * kMinutes;
  p.admission.cost_based_placement = true;
  p.admission.preempt_best_effort = true;
  // Base Immediate traffic is ~18 arrivals per 10 s window and spikes
  // ~120, so only spikes trip the burst detector.
  p.admission.burst_window = 10 * kSeconds;
  p.admission.burst_threshold = 80;
  // As in E16's admission run, best-effort work is not gated by a finite
  // watermark: it flows into the coordinator queue, where Immediate bursts
  // recall it. The adaptive controller runs with bench_slo's step and
  // ceiling; over an unbounded base it cannot close the gate.
  p.admission.best_effort_admit_watermark = 1e12;
  p.admission.adaptive_watermarks = true;
  p.admission.adaptive_step = 4.0;
  p.admission.adaptive_max_factor = 128.0;
  return p;
}

/// One simulated deployment: clock, coordinator, server, open sessions.
struct World {
  SimClock clock;
  Random rng;
  Coordinator coordinator;
  QueryServer server;
  std::vector<int64_t> sessions;
  double open_session_us = 0;  // mean wall time per OpenSession call

  explicit World(uint64_t seed)
      : rng(seed),
        coordinator(&clock, &rng, MakeCoordinatorParams()),
        server(&clock, &coordinator, MakeServerParams()) {}
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  /// Opens `n` sessions, then closes every 20th (lifecycle churn) and
  /// points its slot at a live one.
  void OpenSessions(size_t n) {
    sessions.reserve(n);
    const int64_t t0 = NowNs();
    for (size_t i = 0; i < n; ++i) sessions.push_back(server.OpenSession());
    open_session_us =
        static_cast<double>(NowNs() - t0) / 1e3 / static_cast<double>(n);
    for (size_t i = 0; i < n; i += 20) {
      server.CloseSession(sessions[i]);
      sessions[i] = sessions[(i + 7) % n];
    }
  }
};

struct Replay {
  std::vector<ServiceLevel> levels;
  std::vector<Settlement> settlements;
  std::vector<bool> submitted;
  std::vector<uint64_t> bytes;  // bytes_scanned per settled submission
  ServedStats stats;
};

Replay RunReplay(const std::vector<Arrival>& trace, World* world,
                 SpanLog* spans) {
  Replay out;
  const size_t n = trace.size();
  out.settlements.resize(n);
  out.submitted.assign(n, false);
  out.bytes.assign(n, 0);
  for (const Arrival& a : trace) out.levels.push_back(a.level);
  std::vector<int64_t> server_ids(n, -1);
  SimClock& clock = world->clock;
  QueryServer& server = world->server;
  world->coordinator.Start();

  uint32_t step_span = 0;
  for (size_t i = 0; i < n; ++i) {
    clock.ScheduleAt(trace[i].at, [&, i] {
      Submission s;
      s.level = trace[i].level;
      s.query.bytes_to_scan = trace[i].bytes;
      s.query.work_vcpu_seconds = static_cast<double>(trace[i].bytes) / 200e6;
      s.session_id = world->sessions[(i * 9973) % world->sessions.size()];
      ScopedSpan span(spans, "server.submit", step_span,
                      static_cast<int64_t>(i + 1));
      server_ids[i] = server.Submit(
          std::move(s),
          [&out, i](const SubmissionRecord& srec, const QueryRecord& qrec) {
            Settlement& o = out.settlements[i];
            ++o.settles;
            o.finished = qrec.state == QueryState::kFinished;
            o.cancelled = srec.cancelled;
            o.level = srec.level;
            o.received = srec.received_time;
            o.start = qrec.start_time;
            o.finish = qrec.finish_time;
            o.bill = srec.bill_usd;
            out.bytes[i] = qrec.bytes_scanned;
          });
      out.submitted[i] = server_ids[i] > 0;
    });
  }
  // Batched status polls over the most recent submissions: the monitoring
  // read path the session shards exist for.
  const SimTime last = trace.empty() ? 0 : trace.back().at;
  for (SimTime t = kPollEvery; t <= last; t += kPollEvery) {
    clock.ScheduleAt(t, [&] {
      std::vector<int64_t> ids;
      for (size_t i = n; i > 0 && ids.size() < kPollBatch; --i) {
        if (server_ids[i - 1] > 0) ids.push_back(server_ids[i - 1]);
      }
      if (ids.empty()) return;
      std::vector<bool> found;
      ScopedSpan span(spans, "server.status_batch", step_span);
      server.GetStatusBatch(ids, &found);
    });
  }

  AdvanceTo(&clock, last + kDrain, spans, &step_span, &out.stats);
  Snapshot(&server, &world->coordinator, &out.stats);
  Shutdown(&clock, &server, &world->coordinator);
  return out;
}

/// The correctness gate: settlements (see CheckSettlements), and every
/// bill is the price list's for the bytes the cost model assigned.
size_t CheckReplay(const std::vector<Arrival>& trace, const Replay& r) {
  size_t wrong =
      CheckSettlements(r.levels, r.settlements, r.submitted, r.stats.slo);
  const PriceList prices;
  for (size_t i = 0; i < trace.size(); ++i) {
    const Settlement& o = r.settlements[i];
    if (o.settles != 1) continue;
    const double bill = o.finished ? prices.Bill(o.level, trace[i].bytes) : 0.0;
    if (bill != o.bill || (o.finished && r.bytes[i] != trace[i].bytes)) {
      std::fprintf(stderr, "submission %zu billed %.12g, expected %.12g\n", i,
                   o.bill, bill);
      ++wrong;
    }
  }
  return wrong;
}

}  // namespace

int RunControlPlane(const Args& args) {
  Report report;
  // Every submission keeps about 1 KB of server and coordinator records,
  // so the trace has a fixed length (~180k submissions, about 2 s of wall
  // time on 4 cores) and --seconds sets the number of rounds instead.
  const std::vector<Arrival> trace = MakeTrace(args.seed, kTraceLength);
  const int rounds = std::max(3, args.seconds / 2);

  // Untimed warm-up: a short trace on a throwaway server.
  {
    World warm(args.seed + 1);
    warm.OpenSessions(1000);
    SpanLog off(false);
    RunReplay(MakeTrace(args.seed + 1, 10 * kMinutes), &warm, &off);
  }

  // Rounds: each sets up a fresh world (opening the sessions is set-up,
  // never timed) and replays the same trace on it. setup_s and qps are
  // medians over the rounds, and every round must reproduce the first
  // one's virtual-time digest. One world lives at a time.
  std::vector<double> setup_s;
  std::vector<double> qps;
  SpanLog off(false);
  Replay timed;
  VirtualMetrics v;
  size_t wrong = 0;
  for (int round = 0; round < rounds; ++round) {
    const int64_t t0 = NowNs();
    auto world = std::make_unique<World>(args.seed);
    world->OpenSessions(kSessions);
    setup_s.push_back(SecondsSince(t0));
    Replay replay = RunReplay(trace, world.get(), &off);
    const VirtualMetrics rv =
        ComputeVirtual(replay.levels, replay.settlements, kRelaxedGrace,
                       replay.stats);
    qps.push_back(static_cast<double>(rv.settled) / replay.stats.wall_s);
    std::printf("control_plane: seed=%llu round=%d submissions=%zu "
                "settled=%zu wall=%.3fs virtual_digest=%016llx\n",
                static_cast<unsigned long long>(args.seed), round,
                trace.size(), rv.settled, replay.stats.wall_s,
                static_cast<unsigned long long>(rv.digest));
    if (round == 0) {
      timed = std::move(replay);
      v = rv;
    } else if (rv.digest != v.digest) {
      std::fprintf(stderr, "round %d diverged in virtual time\n", round);
      ++wrong;
    }
  }
  wrong += CheckReplay(trace, timed);

  // Peak memory of the workload itself, before the traced replay and the
  // correctness checks add their own.
  report.Add("peak_rss_mb", PeakRssMb());

  SpanLog spans(args.trace);
  if (args.trace) {
    auto world = std::make_unique<World>(args.seed);
    world->OpenSessions(kSessions);
    const Replay traced = RunReplay(trace, world.get(), &spans);
    const VirtualMetrics tv = ComputeVirtual(
        traced.levels, traced.settlements, kRelaxedGrace, traced.stats);
    if (tv.digest != v.digest) {
      std::fprintf(stderr, "traced replay diverged in virtual time\n");
      ++wrong;
    }
    AddServedLayerMetrics(traced.stats, spans, tv.settled, &report);
    size_t count = 0;
    const double poll_us = spans.MeanUs("server.status_batch", &count);
    report.Add("server.status_batch_us", poll_us,
               "mean over " + std::to_string(count) + " batches of " +
                   std::to_string(kPollBatch));
    report.Add("server.open_session_us", world->open_session_us,
               "mean over " + std::to_string(kSessions) + " calls");
    report.Add("trace.overhead_ratio",
               Median(qps) / (static_cast<double>(tv.settled) /
                              traced.stats.wall_s));
    report.ZeroMissing(Kind::kLayer);
  }

  report.Add("setup_s", Median(setup_s),
             "median of " + std::to_string(rounds) + " openings of " +
                 std::to_string(kSessions) + " sessions");
  report.Add("qps", Median(qps),
             "median of " + std::to_string(rounds) +
                 " replays, settled submissions per wall second");
  AddVirtualMetrics(v, &report);
  return Finish(args, spans, v.attempted, v.failed + wrong, &report);
}

}  // namespace e2e
