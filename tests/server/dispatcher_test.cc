// Server lifecycle + dispatcher suite: Stop-with-held-queries, re-entrant
// Submit-from-callback, backlog-signal correctness under mixed holds,
// batched status polling, client sessions, and bills/bytes/dispatch times
// pinned under a seeded arrival schedule.
#include <gtest/gtest.h>

#include <bit>
#include <vector>

#include "server/query_server.h"
#include "workload/arrivals.h"

namespace pixels {
namespace {

class DispatcherTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cparams_.vm.initial_vms = 1;
    cparams_.vm.slots_per_vm = 2;
    cparams_.vm.min_vms = 1;
    cparams_.vm.max_vms = 8;
    cparams_.vm.high_watermark = 2.0;
    cparams_.vm.low_watermark = 0.75;
    cparams_.vm.monitor_interval = 5 * kSeconds;
    cparams_.vm.scale_in_cooldown = 0;
    sparams_.relaxed_grace_period = 2 * kMinutes;
    sparams_.poll_interval = 1 * kSeconds;
    Rebuild();
  }

  void TearDown() override {
    server_->Stop();
    coordinator_->Stop();
  }

  void Rebuild() {
    coordinator_ = std::make_unique<Coordinator>(&clock_, &rng_, cparams_);
    server_ =
        std::make_unique<QueryServer>(&clock_, coordinator_.get(), sparams_);
  }

  Submission Work(ServiceLevel level, double vcpu_seconds,
                  uint64_t bytes = 1'000'000'000) {
    Submission s;
    s.level = level;
    s.query.work_vcpu_seconds = vcpu_seconds;
    s.query.bytes_to_scan = bytes;
    return s;
  }

  SimClock clock_;
  Random rng_{42};
  CoordinatorParams cparams_;
  QueryServerParams sparams_;
  std::unique_ptr<Coordinator> coordinator_;
  std::unique_ptr<QueryServer> server_;
};

// ---------------------------------------------------------------------------
// Satellite 1: Stop() must not strand held queries.

TEST_F(DispatcherTest, StopFailsHeldQueriesWithCallbacksAndMetrics) {
  // Saturate the 2 slots, then hold one relaxed and one best-effort query.
  server_->Submit(Work(ServiceLevel::kImmediate, 600.0));
  server_->Submit(Work(ServiceLevel::kImmediate, 600.0));
  int relaxed_cb = 0, best_cb = 0;
  int64_t relaxed_id = server_->Submit(
      Work(ServiceLevel::kRelaxed, 1.0),
      [&](const SubmissionRecord& srec, const QueryRecord& qrec) {
        ++relaxed_cb;
        EXPECT_TRUE(srec.cancelled);
        EXPECT_TRUE(srec.billed);
        EXPECT_DOUBLE_EQ(srec.bill_usd, 0.0);
        EXPECT_EQ(qrec.state, QueryState::kFailed);
        EXPECT_FALSE(qrec.error.empty());
      });
  int64_t best_id = server_->Submit(
      Work(ServiceLevel::kBestEffort, 1.0),
      [&](const SubmissionRecord& srec, const QueryRecord& qrec) {
        ++best_cb;
        EXPECT_TRUE(srec.cancelled);
        EXPECT_EQ(qrec.state, QueryState::kFailed);
      });
  EXPECT_EQ(server_->HeldQueries(), 2u);

  server_->Stop();

  EXPECT_EQ(relaxed_cb, 1);
  EXPECT_EQ(best_cb, 1);
  EXPECT_EQ(server_->HeldQueries(), 0u);
  EXPECT_EQ(server_->metrics().Counter("submissions_cancelled"), 2.0);
  EXPECT_EQ(server_->metrics().Counter("submissions_cancelled_relaxed"), 1.0);
  EXPECT_EQ(server_->metrics().Counter("submissions_cancelled_best-of-effort"),
            1.0);
  // Status reflects the cancellation: failed, zero bill, explicit error.
  auto rstatus = server_->GetStatus(relaxed_id);
  ASSERT_TRUE(rstatus.ok());
  EXPECT_EQ(rstatus->state, QueryState::kFailed);
  EXPECT_TRUE(rstatus->cancelled);
  EXPECT_FALSE(rstatus->error.empty());
  EXPECT_DOUBLE_EQ(rstatus->bill_usd, 0.0);
  auto bstatus = server_->GetStatus(best_id);
  ASSERT_TRUE(bstatus.ok());
  EXPECT_TRUE(bstatus->cancelled);
  // Cancelled holds never billed anything.
  EXPECT_DOUBLE_EQ(server_->TotalBilledUsd(), 0.0);
  // The simulation drains: the poll loop is gone.
  clock_.RunAll();
}

TEST_F(DispatcherTest, StopEndsHoldAndQuerySpans) {
  Tracer tracer(TraceLevel::kSpans);
  cparams_.tracer = &tracer;
  cparams_.trace_level = TraceLevel::kSpans;
  Rebuild();
  server_->Submit(Work(ServiceLevel::kImmediate, 600.0));
  server_->Submit(Work(ServiceLevel::kImmediate, 600.0));
  server_->Submit(Work(ServiceLevel::kRelaxed, 1.0));
  server_->Submit(Work(ServiceLevel::kBestEffort, 1.0));
  EXPECT_EQ(server_->HeldQueries(), 2u);
  server_->Stop();
  // Every hold span is closed with the cancellation reason; the held
  // queries' root spans are closed too.
  int holds = 0;
  for (const TraceSpan& s : tracer.FindSpans("hold")) {
    ++holds;
    EXPECT_GE(s.end, 0) << "hold span left open by Stop()";
    bool annotated = false;
    for (const auto& [k, v] : s.attrs) {
      if (k == "released_by" && v == "server-stopped") annotated = true;
    }
    EXPECT_TRUE(annotated);
  }
  EXPECT_EQ(holds, 2);
  int cancelled_roots = 0;
  for (const TraceSpan& s : tracer.FindSpans("query")) {
    for (const auto& [k, v] : s.attrs) {
      if (k == "state" && v == "cancelled") {
        ++cancelled_roots;
        EXPECT_GE(s.end, 0) << "cancelled query span left open";
      }
    }
  }
  EXPECT_EQ(cancelled_roots, 2);
}

TEST_F(DispatcherTest, StopIsIdempotentAndRunningQueriesStillSettle) {
  double billed = -1;
  server_->Submit(Work(ServiceLevel::kImmediate, 1.0, 1'000'000'000'000ULL),
                  [&](const SubmissionRecord& srec, const QueryRecord&) {
                    billed = srec.bill_usd;
                  });
  server_->Stop();
  server_->Stop();  // second stop: no double-cancel, no double-count
  EXPECT_EQ(server_->metrics().Counter("submissions_cancelled"), 0.0);
  // The already-dispatched query keeps running and bills normally.
  clock_.RunUntil(1 * kMinutes);
  EXPECT_DOUBLE_EQ(billed, 5.0);
  EXPECT_DOUBLE_EQ(server_->TotalBilledUsd(), 5.0);
}

// ---------------------------------------------------------------------------
// Satellite 3: re-entrant Submit from a finish callback.

TEST_F(DispatcherTest, ReentrantSubmitFromCallbackIsSafe) {
  // The seed held `SubmissionRecord& srec = records_[id]` across the
  // callback; a Submit() inside the callback could rehash the map and
  // invalidate it. The record snapshot handed to the callback must stay
  // intact, and the nested submission must settle normally.
  std::vector<double> bills;
  int64_t nested_id = -1;
  server_->Submit(
      Work(ServiceLevel::kImmediate, 1.0, 1'000'000'000'000ULL),
      [&](const SubmissionRecord& srec, const QueryRecord& qrec) {
        // Force many inserts from inside the callback.
        for (int i = 0; i < 64; ++i) {
          server_->Submit(Work(ServiceLevel::kImmediate, 0.1));
        }
        nested_id = server_->Submit(
            Work(ServiceLevel::kImmediate, 1.0, 2'000'000'000'000ULL),
            [&](const SubmissionRecord& nested, const QueryRecord&) {
              bills.push_back(nested.bill_usd);
            });
        // The outer record is still coherent after the nested submits.
        EXPECT_TRUE(srec.billed);
        EXPECT_DOUBLE_EQ(srec.bill_usd, 5.0);
        EXPECT_EQ(qrec.state, QueryState::kFinished);
        bills.push_back(srec.bill_usd);
      });
  clock_.RunUntil(30 * kMinutes);
  ASSERT_EQ(bills.size(), 2u);
  EXPECT_DOUBLE_EQ(bills[0], 5.0);
  EXPECT_DOUBLE_EQ(bills[1], 10.0);
  ASSERT_GT(nested_id, 0);
  EXPECT_EQ(server_->GetStatus(nested_id)->state, QueryState::kFinished);
  // Re-entrant messages were absorbed by the active pump, never nested.
  EXPECT_GT(server_->dispatcher_stats().reentrant_enqueues, 0u);
}

// ---------------------------------------------------------------------------
// Satellite 2: backlog signals under mixed holds.

TEST_F(DispatcherTest, BacklogSignalsSeparateRelaxedAndBestEffortHolds) {
  server_->Submit(Work(ServiceLevel::kImmediate, 600.0));
  server_->Submit(Work(ServiceLevel::kImmediate, 600.0));
  for (int i = 0; i < 3; ++i) {
    server_->Submit(Work(ServiceLevel::kRelaxed, 1.0));
  }
  for (int i = 0; i < 2; ++i) {
    server_->Submit(Work(ServiceLevel::kBestEffort, 1.0));
  }
  EXPECT_EQ(server_->HeldQueries(), 5u);
  VmCluster& vm = coordinator_->vm_cluster();
  // Relaxed holds feed the autoscaling backlog (drives scale-out)...
  EXPECT_EQ(vm.backlog(), 3);
  // ...best-effort holds feed the separate deferred signal (blocks
  // scale-in) — the seed dropped them entirely.
  EXPECT_EQ(vm.deferred_backlog(), 2);
  // Best-effort holds must NOT raise Concurrency(): they gate themselves
  // on the low watermark, so counting them would close their own gate
  // forever.
  EXPECT_DOUBLE_EQ(vm.Concurrency(), 2.0 + 3.0);
}

TEST_F(DispatcherTest, BestEffortDispatchUpdatesDeferredBacklog) {
  server_->Submit(Work(ServiceLevel::kImmediate, 20.0));
  server_->Submit(Work(ServiceLevel::kBestEffort, 1.0));
  EXPECT_EQ(coordinator_->vm_cluster().deferred_backlog(), 1);
  // Once the immediate query finishes, the poll dispatches the hold and
  // the deferred signal returns to zero (the seed never updated it on
  // dispatch).
  clock_.RunUntil(10 * kMinutes);
  EXPECT_EQ(server_->HeldQueries(), 0u);
  EXPECT_EQ(coordinator_->vm_cluster().deferred_backlog(), 0);
}

TEST_F(DispatcherTest, DeferredBacklogBlocksScaleIn) {
  // A cluster idling above min_vms normally scales in; a pending
  // best-effort hold must block that (the work is about to run there).
  cparams_.vm.initial_vms = 4;
  cparams_.vm.min_vms = 1;
  cparams_.vm.scale_in_window = 20 * kSeconds;
  Rebuild();
  coordinator_->Start();
  // One long immediate query keeps concurrency at 1 — above the 0.75 low
  // watermark, so the best-effort query stays held; average concurrency
  // 1 >= low watermark means no scale-in either way. Drop below by
  // finishing it, with the hold still pending (gate: concurrency 0 < 0.75
  // releases it though). Instead: pin deferred backlog directly.
  coordinator_->SetExternalPending(0, 3);
  clock_.RunUntil(10 * kMinutes);
  EXPECT_EQ(coordinator_->vm_cluster().scale_in_events(), 0);
  EXPECT_EQ(coordinator_->vm_cluster().num_vms(), 4);
  // Clearing the deferred signal lets the idle cluster shrink again.
  coordinator_->SetExternalPending(0, 0);
  clock_.RunUntil(20 * kMinutes);
  EXPECT_GT(coordinator_->vm_cluster().scale_in_events(), 0);
}

// ---------------------------------------------------------------------------
// Batched status polling + client sessions (tentpole surface).

TEST_F(DispatcherTest, BatchedStatusMatchesSingleStatus) {
  std::vector<int64_t> ids;
  ids.push_back(server_->Submit(Work(ServiceLevel::kImmediate, 1.0)));
  ids.push_back(server_->Submit(Work(ServiceLevel::kImmediate, 500.0)));
  ids.push_back(server_->Submit(Work(ServiceLevel::kImmediate, 500.0)));
  ids.push_back(server_->Submit(Work(ServiceLevel::kRelaxed, 1.0)));
  ids.push_back(9999);  // unknown
  clock_.RunUntil(30 * kSeconds);
  std::vector<bool> found;
  std::vector<QueryServer::StatusView> batch =
      server_->GetStatusBatch(ids, &found);
  ASSERT_EQ(batch.size(), ids.size());
  for (size_t i = 0; i + 1 < ids.size(); ++i) {
    EXPECT_TRUE(found[i]);
    auto single = server_->GetStatus(ids[i]);
    ASSERT_TRUE(single.ok());
    EXPECT_EQ(batch[i].state, single->state) << "id " << ids[i];
    EXPECT_EQ(batch[i].level, single->level);
    EXPECT_DOUBLE_EQ(batch[i].bill_usd, single->bill_usd);
    EXPECT_EQ(batch[i].pending_ms, single->pending_ms);
  }
  EXPECT_FALSE(found.back());
  EXPECT_EQ(batch.back().state, QueryState::kPending);  // default view
}

TEST_F(DispatcherTest, ClientSessionsAggregateBills) {
  const int64_t sid = server_->OpenSession();
  ASSERT_GT(sid, 0);
  EXPECT_EQ(server_->OpenSessions(), 1u);
  Submission a = Work(ServiceLevel::kImmediate, 1.0, 1'000'000'000'000ULL);
  a.session_id = sid;
  Submission b = Work(ServiceLevel::kRelaxed, 1.0, 1'000'000'000'000ULL);
  b.session_id = sid;
  server_->Submit(std::move(a));
  server_->Submit(std::move(b));
  clock_.RunUntil(10 * kMinutes);
  const ClientSession* cs = server_->GetSession(sid);
  ASSERT_NE(cs, nullptr);
  EXPECT_EQ(cs->queries_submitted, 2);
  EXPECT_EQ(cs->queries_settled, 2);
  EXPECT_DOUBLE_EQ(cs->billed_usd, 6.0);  // $5 immediate + $1 relaxed
  EXPECT_TRUE(server_->CloseSession(sid));
  EXPECT_FALSE(server_->CloseSession(sid));
  EXPECT_EQ(server_->OpenSessions(), 0u);
  EXPECT_EQ(server_->SessionCount(), 1u);  // history is kept
  EXPECT_EQ(server_->GetSession(777), nullptr);
}

// ---------------------------------------------------------------------------
// The standing invariant: the actor dispatcher reproduces, bit for bit,
// the bills, bytes, dispatch times and states that the synchronous
// direct-call dispatcher (since removed) produced for a seeded schedule.

struct RunSummary {
  std::vector<double> bills;
  std::vector<uint64_t> bytes;
  std::vector<SimTime> dispatch_times;
  std::vector<int> states;
  double total_billed = 0;
};

/// FNV-1a over the bit patterns of every per-query outcome.
uint64_t Digest(const RunSummary& r) {
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
    mix(static_cast<uint64_t>(r.dispatch_times[i]));
    mix(static_cast<uint64_t>(r.states[i]));
  }
  return h;
}

RunSummary RunSchedule(const CoordinatorParams& cparams,
                       const QueryServerParams& sparams) {
  SimClock clock;
  Random rng(7);
  Coordinator coordinator(&clock, &rng, cparams);
  QueryServer server(&clock, &coordinator, sparams);
  coordinator.Start();

  // Seeded bursty schedule mixing all three levels.
  Random arr_rng(1234);
  std::vector<SimTime> arrivals = SpikeArrivals(
      &arr_rng, /*base_rate=*/0.4, /*spike_rate=*/4.0,
      /*spike_start=*/2 * kMinutes, /*spike_duration=*/1 * kMinutes,
      /*duration=*/8 * kMinutes);
  Random mix_rng(99);
  RunSummary out;
  out.bills.resize(arrivals.size(), -1);
  out.bytes.resize(arrivals.size(), 0);
  out.dispatch_times.resize(arrivals.size(), -2);
  out.states.resize(arrivals.size(), -1);
  std::vector<int64_t> ids(arrivals.size(), 0);
  std::vector<ServiceLevel> levels(arrivals.size());
  std::vector<uint64_t> szs(arrivals.size());
  for (size_t i = 0; i < arrivals.size(); ++i) {
    const double r = mix_rng.NextDouble();
    levels[i] = r < 0.3 ? ServiceLevel::kImmediate
                        : (r < 0.7 ? ServiceLevel::kRelaxed
                                   : ServiceLevel::kBestEffort);
    szs[i] = 500'000'000ULL + static_cast<uint64_t>(mix_rng.NextDouble() *
                                                    2'500'000'000.0);
  }
  for (size_t i = 0; i < arrivals.size(); ++i) {
    clock.ScheduleAt(arrivals[i], [&, i] {
      Submission s;
      s.level = levels[i];
      s.query.bytes_to_scan = szs[i];
      s.query.work_vcpu_seconds =
          static_cast<double>(szs[i]) / 100e6;
      ids[i] = server.Submit(
          s, [&out, i](const SubmissionRecord& srec, const QueryRecord& qrec) {
            out.bills[i] = srec.bill_usd;
            out.bytes[i] = qrec.bytes_scanned;
            out.dispatch_times[i] = srec.dispatch_time;
            out.states[i] = static_cast<int>(qrec.state);
          });
    });
  }
  clock.RunUntil(arrivals.back() + 2 * kHours);
  out.total_billed = server.TotalBilledUsd();
  server.Stop();
  coordinator.Stop();
  clock.RunAll();
  return out;
}

TEST_F(DispatcherTest, AsyncAndSyncPathsAreByteIdentical) {
  CoordinatorParams cparams;
  cparams.vm.initial_vms = 1;
  cparams.vm.slots_per_vm = 2;
  cparams.vm.max_vms = 8;
  cparams.vm.high_watermark = 3.0;
  cparams.vm.low_watermark = 0.75;
  cparams.vm.scale_in_cooldown = 0;
  QueryServerParams sparams;
  sparams.relaxed_grace_period = 90 * kSeconds;
  sparams.poll_interval = 2 * kSeconds;

  const RunSummary run = RunSchedule(cparams, sparams);

  // Pinned from the synchronous dispatcher on the same schedule: 484
  // queries, their digest, and the exact total bill.
  ASSERT_EQ(run.bills.size(), 484u);
  EXPECT_EQ(Digest(run), 0x3856ea01b72937dcULL);
  EXPECT_EQ(run.total_billed, 0x1.b7b5d739c598ep+0);
  EXPECT_EQ(run.bills[0], 0x1.f4b1ef307d4e6p-10);
  EXPECT_EQ(run.bytes[0], 1910000061u);
  EXPECT_EQ(run.dispatch_times[0], 7720);
  EXPECT_EQ(run.bills.back(), 0x1.d68a2e4c589b1p-11);
  EXPECT_EQ(run.dispatch_times.back(), 1129071);
  for (int state : run.states) {
    EXPECT_EQ(state, static_cast<int>(QueryState::kFinished));
  }
}

TEST_F(DispatcherTest, DispatcherStatsCountTraffic) {
  server_->Submit(Work(ServiceLevel::kImmediate, 1.0));
  server_->Submit(Work(ServiceLevel::kImmediate, 500.0));
  server_->Submit(Work(ServiceLevel::kImmediate, 500.0));
  server_->Submit(Work(ServiceLevel::kRelaxed, 1.0));  // held -> polls
  clock_.RunUntil(5 * kMinutes);
  const DispatcherStats& ds = server_->dispatcher_stats();
  EXPECT_EQ(ds.submits, 4u);
  EXPECT_GE(ds.completions, 4u);
  EXPECT_GT(ds.polls, 0u);
  EXPECT_EQ(ds.messages, ds.submits + ds.completions + ds.polls);
  EXPECT_GT(ds.pumps, 0u);
  // The metrics snapshot surfaces the same counters as gauges.
  MetricsRegistry snap = server_->MetricsSnapshot();
  EXPECT_EQ(snap.Gauge("dispatcher_messages"),
            static_cast<double>(ds.messages));
}

}  // namespace
}  // namespace pixels
