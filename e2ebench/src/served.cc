#include "served.h"

#include <algorithm>
#include <cstdio>

namespace e2e {

using namespace pixels;

void AdvanceTo(SimClock* clock, SimTime deadline, SpanLog* spans,
               uint32_t* step_span, ServedStats* stats) {
  const int64_t start = NowNs();
  if (!spans->enabled()) {
    clock->RunUntil(deadline);
  } else {
    bool reached = false;
    clock->ScheduleAt(deadline, [&reached] { reached = true; });
    while (!reached) {
      *step_span = spans->Begin("common.sim_step");
      const bool ran = clock->Step();
      spans->End(*step_span);
      *step_span = 0;
      if (!ran) break;
      ++stats->sim_events;
    }
  }
  stats->wall_s = SecondsSince(start);
}

void Snapshot(QueryServer* server, Coordinator* coordinator,
              ServedStats* stats) {
  stats->slo = server->SloReport();
  stats->vm_cost = coordinator->TotalVmCostUsd();
  stats->cf_cost = coordinator->TotalCfCostUsd();
  stats->scale_out_events = coordinator->vm_cluster().scale_out_events();
  stats->peak_vms = coordinator->vm_cluster().metrics().GetSeries("vms").Max();
  stats->dispatcher = server->dispatcher_stats();
  stats->preemptions = server->metrics().Counter("best_effort_preemptions");
  stats->recalls = coordinator->metrics().Counter("queries_recalled");
}

void Shutdown(SimClock* clock, QueryServer* server, Coordinator* coordinator) {
  server->Stop();
  coordinator->Stop();
  clock->RunAll();
}

VirtualMetrics ComputeVirtual(const std::vector<ServiceLevel>& levels,
                              const std::vector<Settlement>& settlements,
                              SimTime relaxed_grace, const ServedStats& stats) {
  VirtualMetrics v;
  v.attempted = levels.size();
  std::vector<double> latency[3];
  size_t slo_attempted = 0;
  size_t slo_missed = 0;
  double bills = 0;
  for (size_t i = 0; i < levels.size(); ++i) {
    const Settlement& s = settlements[i];
    const int level = static_cast<int>(levels[i]);
    const bool ok = s.settles == 1 && s.finished && !s.cancelled;
    if (s.settles > 0) {
      ++v.settled;
      bills += s.bill;
    }
    if (!ok) ++v.failed;
    if (levels[i] != ServiceLevel::kBestEffort) {
      ++slo_attempted;
      const SimTime limit =
          levels[i] == ServiceLevel::kImmediate ? 0 : relaxed_grace;
      if (!ok || s.start - s.received > limit) ++slo_missed;
    }
    if (ok) {
      latency[level].push_back(static_cast<double>(s.finish - s.received) /
                               1000.0);
    }
    v.digest = Fold(v.digest, static_cast<uint64_t>(level));
    v.digest = Fold(v.digest, static_cast<uint64_t>(s.received));
    v.digest = Fold(v.digest, static_cast<uint64_t>(s.start));
    v.digest = Fold(v.digest, static_cast<uint64_t>(s.finish));
    v.digest = FoldDouble(v.digest, s.bill);
    v.digest = Fold(v.digest, ok ? 1 : 0);
    v.digest = Fold(v.digest, s.result_digest);
  }
  v.slo_violation_ratio = slo_attempted == 0
                              ? 0
                              : static_cast<double>(slo_missed) /
                                    static_cast<double>(slo_attempted);
  for (int l = 0; l < 3; ++l) {
    v.latency_n[l] = latency[l].size();
    v.latency_p50[l] = Median(latency[l]);
    if (!TailPercentile(latency[l], &v.latency_tail[l], &v.tail_pct[l])) {
      v.latency_tail[l] = v.latency_p50[l];
    }
  }
  const double settled = static_cast<double>(std::max<size_t>(v.settled, 1));
  v.bill_per_query = bills / settled;
  v.cost_per_query = (stats.vm_cost + stats.cf_cost) / settled;
  v.digest = FoldDouble(v.digest, stats.vm_cost);
  v.digest = FoldDouble(v.digest, stats.cf_cost);
  return v;
}

void AddVirtualMetrics(const VirtualMetrics& v, Report* report) {
  static const char* kLevelNames[3] = {"immediate", "relaxed", "best_effort"};
  report->Add("slo_violation_ratio", v.slo_violation_ratio);
  for (int l = 0; l < 3; ++l) {
    report->Add(std::string("latency_s_p50.") + kLevelNames[l],
                v.latency_p50[l], "n=" + std::to_string(v.latency_n[l]));
    report->Add(std::string("latency_s_tail.") + kLevelNames[l],
                v.latency_tail[l], TailNote(v.tail_pct[l], v.latency_n[l]));
  }
  report->Add("bill_usd_per_query", v.bill_per_query);
  report->Add("cost_usd_per_query", v.cost_per_query);
}

size_t CheckSettlements(const std::vector<ServiceLevel>& levels,
                        const std::vector<Settlement>& settlements,
                        const std::vector<bool>& submitted,
                        const SloReport& slo) {
  size_t wrong = 0;
  uint64_t settled_per_level[3] = {0, 0, 0};
  for (size_t i = 0; i < levels.size(); ++i) {
    const Settlement& s = settlements[i];
    if (!submitted[i]) continue;
    if (s.settles != 1 || s.level != levels[i]) {
      std::fprintf(stderr, "submission %zu settled %d times at level %d\n",
                   i, s.settles, static_cast<int>(s.level));
      ++wrong;
    }
    if (s.settles > 0) ++settled_per_level[static_cast<int>(s.level)];
  }
  for (int l = 0; l < 3; ++l) {
    const SloLevelReport& rep = slo.levels[l];
    if (rep.met + rep.violated + rep.excluded != rep.settled ||
        rep.settled != settled_per_level[l]) {
      std::fprintf(stderr, "SLO report for level %d does not add up\n", l);
      ++wrong;
    }
  }
  return wrong;
}

void AddServedLayerMetrics(const ServedStats& stats, const SpanLog& spans,
                           size_t settled, Report* report) {
  const double n = static_cast<double>(std::max<size_t>(settled, 1));
  report->Add("cloud.scale_out_events", stats.scale_out_events);
  report->Add("cloud.peak_vms", stats.peak_vms);
  report->Add("cloud.vm_cost_usd", stats.vm_cost);
  report->Add("cloud.cf_cost_usd", stats.cf_cost);
  size_t count = 0;
  const double submit_us = spans.MeanUs("server.submit", &count);
  report->Add("server.submit_us", submit_us,
              "mean over " + std::to_string(count) + " calls");
  report->Add("server.messages_per_query",
              static_cast<double>(stats.dispatcher.messages) / n);
  report->Add("server.pump_max_batch",
              static_cast<double>(stats.dispatcher.max_batch));
  report->Add("server.preemptions", stats.preemptions);
  report->Add("server.recalls", stats.recalls);
  report->Add("common.sim_events", static_cast<double>(stats.sim_events));
  double tail = 0;
  double pct = 0;
  const std::vector<double> steps = spans.DurationsUs("common.sim_step");
  if (TailPercentile(steps, &tail, &pct)) {
    report->Add("common.event_wall_us_tail", tail,
                TailNote(pct, steps.size()));
  }
}

}  // namespace e2e
