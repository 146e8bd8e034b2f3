// served_mix: an open loop in virtual time through QueryServer ->
// Coordinator with execute_real=true. Periodic spikes of submissions, split
// 30/40/30 across Immediate, Relaxed and Best-of-effort, exceed VM capacity,
// so Immediate work spills to the CF fleet and its shuffle DAG and the
// autoscaler scales out and back in. The SQL comes from the TpchQuerySet /
// LogQuerySet templates with seeded literals and a seeded share of exact
// repeats (the MV store is on, so MV hits and misses both occur); about 10%
// of submissions arrive as NL questions through RoverBackend. The data,
// TPC-H SF 0.05 plus weblogs, sits in an ObjectStore over a
// FaultInjectingStorage (a seeded straggler rule slows one CF task path,
// injecting no errors) over the in-memory store, and fits the
// coordinator's 128 MB chunk cache.
//
// The generator is never late: every arrival is an event on the SimClock.
// Virtual-time metrics (latency per level, SLO misses, bill, cost) repeat
// exactly for a seed; qps is settled submissions per wall second of the
// whole replay.
#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdio>
#include <map>
#include <thread>

#include "common/thread_pool.h"
#include "exec/executor.h"
#include "format/type.h"
#include "harness.h"
#include "rover/backend.h"
#include "served.h"
#include "storage/fault_injection.h"
#include "storage/memory_store.h"
#include "storage/object_store.h"
#include "workload/loggen.h"
#include "workload/tpch.h"

namespace e2e {
namespace {

using namespace pixels;

constexpr double kScaleFactor = 0.05;
constexpr int kSetups = 9;
constexpr int kRounds = 5;
constexpr SimTime kPeriod = 6 * kMinutes;
constexpr SimTime kSpikeLen = 20 * kSeconds;
constexpr int kSpikeArrivals = 50;  // per period, within kSpikeLen
constexpr int kBaseArrivals = 17;   // per period, after the spike
constexpr SimTime kDrain = 30 * kMinutes;
constexpr SimTime kRelaxedGrace = 5 * kMinutes;

// ------------------------------------------------------------------ data

struct Store {
  std::shared_ptr<TimingStorage> timing;  // traced runs only
  std::shared_ptr<ObjectStore> object;
  std::shared_ptr<Catalog> catalog;
};

/// ObjectStore -> FaultInjectingStorage -> [TimingStorage] -> MemoryStore.
/// The straggler rule slows every attempt (never the hedge duplicate) of
/// one seeded CF task index, in simulated milliseconds only.
Result<Store> Load(uint64_t seed, bool timed_storage) {
  Store s;
  std::shared_ptr<Storage> base = std::make_shared<MemoryStore>();
  if (timed_storage) {
    s.timing = std::make_shared<TimingStorage>(base);
    base = s.timing;
  }
  FaultInjectionParams faults;
  faults.seed = seed;
  FaultRule straggler;
  straggler.path_substring = "/t" + std::to_string(seed % 8) + ".a";
  straggler.slow_ms = 4000;
  faults.rules.push_back(straggler);
  auto injector =
      std::make_shared<FaultInjectingStorage>(base, std::move(faults));
  s.object = std::make_shared<ObjectStore>(injector);
  s.catalog = std::make_shared<Catalog>(s.object);
  TpchOptions tpch;
  tpch.scale_factor = kScaleFactor;
  tpch.seed = seed;
  PIXELS_RETURN_NOT_OK(GenerateTpch(s.catalog.get(), "tpch", tpch));
  LogGenOptions logs;
  logs.seed = seed + 1;
  PIXELS_RETURN_NOT_OK(GenerateWebLogs(s.catalog.get(), "logs", logs));
  s.object->ResetStats();
  return s;
}

// ----------------------------------------------------------------- trace

struct Arrival {
  SimTime at = 0;
  ServiceLevel level = ServiceLevel::kImmediate;
  bool nl = false;
  std::string text;  // SQL, or the NL question when `nl`
  std::string db;
};

/// Shifts every DATE 'yyyy-mm-dd' literal of a template by `days`, so a
/// range predicate keeps its width while its position moves.
std::string ShiftDates(const std::string& sql, int64_t days) {
  std::string out;
  size_t pos = 0;
  const std::string marker = "DATE '";
  while (true) {
    const size_t at = sql.find(marker, pos);
    if (at == std::string::npos || at + marker.size() + 10 > sql.size()) break;
    const size_t lit = at + marker.size();
    out += sql.substr(pos, lit - pos);
    const Result<int32_t> date = ParseDate(sql.substr(lit, 10));
    out += date.ok() ? FormatDate(*date + static_cast<int32_t>(days))
                     : sql.substr(lit, 10);
    pos = lit + 10;
  }
  out += sql.substr(pos);
  return out;
}

/// Replaces the integer that follows the first `prefix` in `sql` (the
/// template is returned unchanged when it has no such literal).
std::string ReplaceNumberAfter(const std::string& sql, const std::string& prefix,
                               int64_t value) {
  const size_t at = sql.find(prefix);
  if (at == std::string::npos) return sql;
  const size_t begin = at + prefix.size();
  size_t end = begin;
  while (end < sql.size() && std::isdigit(static_cast<unsigned char>(sql[end]))) {
    ++end;
  }
  if (end == begin) return sql;
  return sql.substr(0, begin) + std::to_string(value) + sql.substr(end);
}

/// Seeded literals for one template: dates shift together, and each
/// integer literal the templates carry is redrawn from a range around its
/// canned value.
std::string InstantiateTemplate(const std::string& sql, Random* rng) {
  std::string out = ShiftDates(sql, rng->Uniform(-90, 90));
  out = ReplaceNumberAfter(out, "LIMIT ", rng->Uniform(5, 25));
  out = ReplaceNumberAfter(out, "l_quantity < ", rng->Uniform(20, 28));
  out = ReplaceNumberAfter(out, "status >= ", 100 * rng->Uniform(4, 5));
  out = ReplaceNumberAfter(out, "bytes_sent > ", 1024 * rng->Uniform(256, 768));
  return out;
}

const std::vector<std::string>& NlQuestions() {
  static const std::vector<std::string> questions = {
      "how many orders are there?",
      "how many customer are there?",
      "total revenue of lineitem per returnflag",
      "total quantity of lineitem per linestatus",
      "average acctbal of customer per mktsegment, top 3",
  };
  return questions;
}

/// A deck holding each index `copies[i]` times, shuffled; refilled when
/// empty. Keeps the template and level mix exact over every deck so that
/// seeds vary the order and literals, not the composition.
class Deck {
 public:
  Deck(std::vector<int> copies, Random* rng)
      : copies_(std::move(copies)), rng_(rng) {}
  size_t Next() {
    if (cards_.empty()) {
      for (size_t i = 0; i < copies_.size(); ++i) {
        cards_.insert(cards_.end(), copies_[i], i);
      }
      for (size_t i = cards_.size(); i > 1; --i) {
        std::swap(cards_[i - 1],
                  cards_[rng_->Uniform(0, static_cast<int64_t>(i) - 1)]);
      }
    }
    const size_t card = cards_.back();
    cards_.pop_back();
    return card;
  }

 private:
  std::vector<int> copies_;
  Random* rng_;
  std::vector<size_t> cards_;
};

/// `periods` spike periods of kPeriod: kSpikeArrivals at seeded times
/// within the first kSpikeLen, then kBaseArrivals spread over the rest.
/// Counts are fixed and every mix below is dealt from a deck, so seeds vary
/// arrival times, order and literals while the composition stays the same.
std::vector<Arrival> MakeTrace(uint64_t seed, int periods) {
  Random rng(seed * 0x9E3779B97F4A7C15ULL + 3);
  std::vector<SimTime> times;
  for (int p = 0; p < periods; ++p) {
    const SimTime start = p * kPeriod;
    std::vector<SimTime> period;
    for (int i = 0; i < kSpikeArrivals; ++i) {
      period.push_back(start + rng.Uniform(0, kSpikeLen - 1));
    }
    for (int i = 0; i < kBaseArrivals; ++i) {
      period.push_back(start + rng.Uniform(kSpikeLen, kPeriod - 1));
    }
    std::sort(period.begin(), period.end());
    times.insert(times.end(), period.begin(), period.end());
  }
  struct Template {
    std::string sql;
    std::string db;
  };
  std::vector<Template> templates;
  for (const TpchQuery& q : TpchQuerySet()) templates.push_back({q.sql, "tpch"});
  for (const LogQuery& q : LogQuerySet()) templates.push_back({q.sql, "logs"});

  Deck levels({3, 4, 3}, &rng);
  // Templates whose literals the seed redraws come up three times as often
  // as literal-free ones, which can only ever repeat exactly.
  std::vector<int> weights;
  for (const Template& t : templates) {
    weights.push_back(InstantiateTemplate(t.sql, &rng) == t.sql ? 1 : 3);
  }
  Deck picks(weights, &rng);
  // Per 20 submissions: 2 NL questions, 3 exact repeats, 15 fresh SQL.
  Deck kinds({2, 3, 15}, &rng);
  std::vector<Arrival> trace;
  std::vector<size_t> sql_arrivals;
  trace.reserve(times.size());
  for (SimTime at : times) {
    Arrival a;
    a.at = at;
    a.level = static_cast<ServiceLevel>(levels.Next());
    const size_t kind = kinds.Next();
    if (kind == 0) {
      a.nl = true;
      a.db = "tpch";
      a.text = NlQuestions()[rng.Uniform(0, NlQuestions().size() - 1)];
    } else if (kind == 1 && !sql_arrivals.empty()) {
      // An exact repeat of an earlier SQL submission (MV reuse candidate).
      const Arrival& earlier =
          trace[sql_arrivals[rng.Uniform(0, sql_arrivals.size() - 1)]];
      a.db = earlier.db;
      a.text = earlier.text;
    } else {
      const Template& t = templates[picks.Next()];
      a.db = t.db;
      a.text = InstantiateTemplate(t.sql, &rng);
    }
    if (!a.nl) sql_arrivals.push_back(trace.size());
    trace.push_back(std::move(a));
  }
  return trace;
}

// ---------------------------------------------------------------- replay

CoordinatorParams MakeCoordinatorParams() {
  CoordinatorParams p;
  p.vm.initial_vms = 1;
  p.vm.min_vms = 1;
  p.vm.max_vms = 6;
  p.vm.slots_per_vm = 4;
  // The in-memory SF 0.05 stands in for a table a few hundred times
  // larger: virtual scan throughput is scaled down to match, so queries
  // run for seconds of virtual time and a spike outgrows the cluster.
  p.bytes_per_vcpu_second = 5e5;
  p.mv_store_bytes = 64ULL << 20;
  p.cf_shuffle = true;
  return p;
}

/// Engine-side record of one settled submission.
struct Execution {
  uint64_t bytes_scanned = 0;
  uint64_t mv_saved_bytes = 0;
  bool used_cf = false;
  bool used_shuffle = false;
  int cf_worker_retries = 0;
  int hedges_fired = 0;
  int hedges_won = 0;
  uint64_t shuffle_bytes_written = 0;
  uint64_t rf_probe_rows = 0;
  uint64_t rf_pruned_rows = 0;
  std::string sql;
  TablePtr result;
};

/// What one replay of the trace observed, snapshotted at the deadline.
struct Replay {
  std::vector<ServiceLevel> levels;
  std::vector<Settlement> settlements;
  std::vector<bool> submitted;
  std::vector<Execution> executions;
  size_t translate_ok = 0;
  size_t translate_attempts = 0;
  ServedStats stats;
  double cf_stage_wall_ms_p50 = 0;
  MvStoreStats mv;
  double cache_hits = 0;
  double cache_misses = 0;
};

Replay RunReplay(const std::vector<Arrival>& trace, Store* store,
                 uint64_t seed, SpanLog* spans) {
  Replay out;
  const size_t n = trace.size();
  out.settlements.resize(n);
  out.submitted.assign(n, false);
  out.executions.resize(n);
  for (const Arrival& a : trace) out.levels.push_back(a.level);
  std::vector<int64_t> server_ids(n, -1);
  SimClock clock;
  Random rng(seed);
  Coordinator coordinator(&clock, &rng, MakeCoordinatorParams(),
                          store->catalog);
  QueryServerParams sparams;
  sparams.relaxed_grace_period = kRelaxedGrace;
  QueryServer server(&clock, &coordinator, sparams);
  CodesService codes(store->catalog.get());
  for (const auto& [word, token] : TpchSynonyms()) codes.AddSynonym(word, token);
  AuthService auth;
  (void)auth.RegisterUser("analyst", "analyst-password", {"tpch"});
  RoverBackend rover(store->catalog.get(), &server, &codes, &auth, &clock);
  std::string token;
  if (auto login = rover.Login("analyst", "analyst-password"); login.ok()) {
    token = *login;
    (void)rover.SelectDatabase(token, "tpch");
  }
  coordinator.Start();

  // Server ids are handed out in submission order starting at 1; a Rover
  // submission takes the next one. CheckSettlements confirms each guess
  // through the record's level.
  int64_t next_server_id = 1;
  uint32_t step_span = 0;
  for (size_t i = 0; i < n; ++i) {
    clock.ScheduleAt(trace[i].at, [&, i] {
      const Arrival& a = trace[i];
      const int64_t qid = static_cast<int64_t>(i + 1);
      if (a.nl) {
        ++out.translate_attempts;
        Result<Json> translated = Status::Internal("not run");
        {
          ScopedSpan s(spans, "nl2sql.translate", step_span, qid);
          translated = rover.Translate(token, a.text);
        }
        if (!translated.ok()) return;
        ++out.translate_ok;
        Result<int64_t> submitted = Status::Internal("not run");
        {
          ScopedSpan s(spans, "rover.submit", step_span, qid);
          submitted = rover.Submit(token, translated->Get("query_id").AsInt(),
                                   a.level);
        }
        if (!submitted.ok()) return;
        server_ids[i] = next_server_id++;
        return;
      }
      Submission s;
      s.level = a.level;
      s.query.sql = a.text;
      s.query.db = a.db;
      s.query.execute_real = true;
      int64_t id = -1;
      {
        ScopedSpan span(spans, "server.submit", step_span, qid);
        id = server.Submit(std::move(s),
                           [&out, i](const SubmissionRecord&,
                                     const QueryRecord&) {
                             ++out.settlements[i].settles;
                           });
      }
      if (id < 0) return;
      server_ids[i] = id;
      next_server_id = id + 1;
    });
  }

  AdvanceTo(&clock, (trace.empty() ? 0 : trace.back().at) + kDrain, spans,
            &step_span, &out.stats);

  for (size_t i = 0; i < n; ++i) {
    const SubmissionRecord* srec =
        server_ids[i] > 0 ? server.GetRecord(server_ids[i]) : nullptr;
    if (srec == nullptr) continue;
    out.submitted[i] = true;
    Settlement& o = out.settlements[i];
    // Rover submissions carry no callback; their record says whether
    // they settled.
    if (trace[i].nl) o.settles = srec->billed ? 1 : 0;
    o.level = srec->level;
    o.received = srec->received_time;
    o.cancelled = srec->cancelled;
    o.bill = srec->bill_usd;
    const QueryRecord* qrec = srec->coordinator_id > 0
                                  ? coordinator.GetQuery(srec->coordinator_id)
                                  : nullptr;
    if (qrec == nullptr) continue;
    o.finished = qrec->state == QueryState::kFinished;
    o.start = qrec->start_time;
    o.finish = qrec->finish_time;
    if (o.finished && qrec->result != nullptr) {
      o.result_digest = ResultDigest(*qrec->result, qrec->spec.sql);
    }
    Execution& e = out.executions[i];
    e.bytes_scanned = qrec->bytes_scanned;
    e.mv_saved_bytes = qrec->mv_saved_bytes;
    e.used_cf = qrec->used_cf;
    e.used_shuffle = qrec->used_shuffle;
    e.cf_worker_retries = qrec->cf_worker_retries;
    e.hedges_fired = qrec->cf_hedges_fired;
    e.hedges_won = qrec->cf_hedges_won;
    e.shuffle_bytes_written = qrec->shuffle_bytes_written;
    e.rf_probe_rows = qrec->rf_probe_rows;
    e.rf_pruned_rows = qrec->rf_pruned_rows;
    e.sql = qrec->spec.sql;
    e.result = qrec->result;
  }
  Snapshot(&server, &coordinator, &out.stats);
  const MetricsRegistry metrics = coordinator.MetricsSnapshot();
  const Histogram stage_wall = metrics.GetHistogram("cf_stage_wall_ms");
  out.cf_stage_wall_ms_p50 =
      stage_wall.count() > 0 ? stage_wall.Quantile(50) : 0;
  out.cache_hits = metrics.Gauge("chunk_cache_hits");
  out.cache_misses = metrics.Gauge("chunk_cache_misses");
  if (coordinator.mv_store() != nullptr) out.mv = coordinator.mv_store()->stats();
  Shutdown(&clock, &server, &coordinator);
  return out;
}

/// The correctness gate, run after timing. Counts wrong results: the
/// settlement checks (see CheckSettlements), a bill that differs from the
/// price list, and a finished result that differs from a direct serial
/// ExecuteQuery of the same SQL.
size_t CheckReplay(const std::vector<Arrival>& trace, const Replay& r,
                   Catalog* catalog) {
  size_t wrong =
      CheckSettlements(r.levels, r.settlements, r.submitted, r.stats.slo);
  const PriceList prices;
  const double reuse_fraction = QueryServerParams{}.mv_reuse_bill_fraction;
  std::map<std::string, uint64_t> expected;  // db + '\n' + sql -> digest
  std::vector<std::string> keys;
  for (size_t i = 0; i < trace.size(); ++i) {
    const Settlement& o = r.settlements[i];
    const Execution& e = r.executions[i];
    if (o.settles != 1) continue;
    const double bill =
        o.finished ? prices.Bill(o.level, e.bytes_scanned) +
                         reuse_fraction * prices.Bill(o.level, e.mv_saved_bytes)
                   : 0.0;
    if (bill != o.bill) {
      std::fprintf(stderr, "submission %zu billed %.12g, expected %.12g\n", i,
                   o.bill, bill);
      ++wrong;
    }
    if (o.finished) {
      const std::string key = trace[i].db + "\n" + e.sql;
      if (expected.emplace(key, 0).second) keys.push_back(key);
    }
  }
  // Reference digests: direct serial ExecuteQuery, on nproc threads.
  std::vector<uint64_t> digests(keys.size(), 0);
  std::vector<int> ok(keys.size(), 0);
  std::atomic<size_t> next{0};
  auto worker = [&] {
    for (size_t k = next++; k < keys.size(); k = next++) {
      const size_t cut = keys[k].find('\n');
      const std::string db = keys[k].substr(0, cut);
      const std::string sql = keys[k].substr(cut + 1);
      ExecContext ctx;
      ctx.catalog = catalog;
      ctx.parallelism = 1;
      auto result = ExecuteQuery(sql, db, &ctx);
      if (!result.ok()) continue;
      digests[k] = ResultDigest(**result, sql);
      ok[k] = 1;
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < DefaultParallelism(); ++t) threads.emplace_back(worker);
  for (std::thread& t : threads) t.join();
  for (size_t k = 0; k < keys.size(); ++k) {
    if (!ok[k]) {
      std::fprintf(stderr, "reference run failed: %s\n", keys[k].c_str());
      ++wrong;
    }
    expected[keys[k]] = digests[k];
  }
  for (size_t i = 0; i < trace.size(); ++i) {
    const Settlement& o = r.settlements[i];
    if (o.settles != 1 || !o.finished) continue;
    const std::string& sql = r.executions[i].sql;
    if (o.result_digest != expected[trace[i].db + "\n" + sql]) {
      std::fprintf(stderr, "submission %zu: wrong result for %s\n", i,
                   sql.c_str());
      ++wrong;
    }
  }
  return wrong;
}

/// Per-layer metrics of the traced replay (storage deltas bracket it).
void AddLayerMetrics(const Replay& r, const SpanLog& spans,
                     const StorageTiming& t_after,
                     const StorageTiming& t_before,
                     const ObjectStoreStats& o_after,
                     const ObjectStoreStats& o_before, size_t settled_count,
                     Report* report) {
  const double settled =
      static_cast<double>(std::max<size_t>(settled_count, 1));
  uint64_t rf_probe = 0, rf_pruned = 0, shuffle_written = 0;
  size_t cf = 0, shuffles = 0;
  int retries = 0, fired = 0, won = 0;
  for (const Execution& e : r.executions) {
    rf_probe += e.rf_probe_rows;
    rf_pruned += e.rf_pruned_rows;
    shuffle_written += e.shuffle_bytes_written;
    cf += e.used_cf;
    shuffles += e.used_shuffle;
    retries += e.cf_worker_retries;
    fired += e.hedges_fired;
    won += e.hedges_won;
  }
  report->Add("exec.rf_useful_ratio",
              rf_probe == 0 ? 0
                            : static_cast<double>(rf_pruned) /
                                  static_cast<double>(rf_probe));
  report->Add("storage.read_calls",
              static_cast<double>(t_after.read_calls - t_before.read_calls) /
                  settled);
  report->Add("storage.read_mb",
              static_cast<double>(t_after.read_bytes - t_before.read_bytes) /
                  1e6 / settled);
  report->Add("storage.read_busy_ms",
              (t_after.read_busy_ms - t_before.read_busy_ms) / settled);
  const double lookups = r.cache_hits + r.cache_misses;
  report->Add("storage.cache_hit_ratio",
              lookups == 0 ? 0 : r.cache_hits / lookups);
  report->Add("storage.get_requests",
              static_cast<double>(o_after.get_requests - o_before.get_requests) /
                  settled);
  report->Add("storage.coalesced_gets",
              static_cast<double>(o_after.coalesced_gets -
                                  o_before.coalesced_gets) /
                  settled);
  report->Add("mv.hit_ratio", r.mv.lookups == 0
                                  ? 0
                                  : static_cast<double>(r.mv.hits) /
                                        static_cast<double>(r.mv.lookups));
  report->Add("mv.saved_mb", static_cast<double>(r.mv.saved_scan_bytes) / 1e6);
  report->Add("turbo.cf_query_ratio", static_cast<double>(cf) / settled);
  report->Add("turbo.shuffle_queries", static_cast<double>(shuffles));
  report->Add("turbo.cf_worker_retries", retries);
  report->Add("turbo.hedges_fired", fired);
  report->Add("turbo.hedge_win_ratio",
              fired == 0 ? 0 : static_cast<double>(won) / fired);
  report->Add("turbo.shuffle_mb_written",
              static_cast<double>(shuffle_written) / 1e6);
  report->Add("turbo.cf_stage_wall_ms_p50", r.cf_stage_wall_ms_p50);
  AddServedLayerMetrics(r.stats, spans, settled_count, report);
  report->Add("nl2sql.translate_us", spans.MeanUs("nl2sql.translate"));
  report->Add("nl2sql.translated_ratio",
              r.translate_attempts == 0
                  ? 0
                  : static_cast<double>(r.translate_ok) /
                        static_cast<double>(r.translate_attempts));
}

}  // namespace

int RunServedMix(const Args& args) {
  Report report;
  std::vector<double> setup_s;
  Store store;
  for (int i = 0; i < kSetups; ++i) {
    store = Store{};
    const int64_t t0 = NowNs();
    auto loaded = Load(args.seed, args.trace);
    setup_s.push_back(SecondsSince(t0));
    if (!loaded.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n",
                   loaded.status().ToString().c_str());
      return 1;
    }
    store = std::move(loaded).ValueOrDie();
  }

  // Rounds: the same trace replays on a fresh coordinator and server each
  // time, over the loaded data; qps is the median over the rounds, and
  // every round must reproduce the first one's virtual-time digest.
  const std::vector<Arrival> trace =
      MakeTrace(args.seed, std::max(1, args.seconds * 3 / 10));
  SpanLog off(false);
  Replay timed;
  VirtualMetrics v;
  std::vector<double> qps;
  size_t wrong = 0;
  for (int round = 0; round < kRounds; ++round) {
    Replay replay = RunReplay(trace, &store, args.seed, &off);
    const VirtualMetrics rv = ComputeVirtual(
        replay.levels, replay.settlements, kRelaxedGrace, replay.stats);
    qps.push_back(static_cast<double>(rv.settled) / replay.stats.wall_s);
    std::printf("served_mix: seed=%llu round=%d submissions=%zu settled=%zu "
                "wall=%.3fs virtual_digest=%016llx\n",
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

  // Peak memory of the workload itself, before the traced replay and the
  // correctness checks add their own.
  report.Add("peak_rss_mb", PeakRssMb());

  SpanLog spans(args.trace);
  if (args.trace) {
    const StorageTiming t_before = store.timing->timing();
    const ObjectStoreStats o_before = store.object->stats();
    const Replay traced = RunReplay(trace, &store, args.seed, &spans);
    const StorageTiming t_after = store.timing->timing();
    const ObjectStoreStats o_after = store.object->stats();
    const VirtualMetrics tv = ComputeVirtual(
        traced.levels, traced.settlements, kRelaxedGrace, traced.stats);
    if (tv.digest != v.digest) {
      std::fprintf(stderr, "traced replay diverged in virtual time\n");
      ++wrong;
    }
    AddLayerMetrics(traced, spans, t_after, t_before, o_after, o_before,
                    tv.settled, &report);
    report.Add("trace.overhead_ratio",
               Median(qps) / (static_cast<double>(tv.settled) /
                              traced.stats.wall_s));
    report.ZeroMissing(Kind::kLayer);
  }
  wrong += CheckReplay(trace, timed, store.catalog.get());

  report.Add("setup_s", Median(setup_s),
             "median of " + std::to_string(kSetups) +
                 " loads of SF 0.05 + weblogs");
  report.Add("qps", Median(qps),
             "median of " + std::to_string(kRounds) +
                 " replays, settled submissions per wall second");
  AddVirtualMetrics(v, &report);
  // Refused submissions and failed translations never settle, so v.failed
  // counts them.
  return Finish(args, spans, v.attempted, v.failed + wrong, &report);
}

}  // namespace e2e
