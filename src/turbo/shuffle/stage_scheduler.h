// Stage scheduler for the CF shuffle DAG: launches stages as their
// inputs complete, re-invokes failed tasks with the PR-4 retry/backoff
// rules, degrades exhausted tasks to the VM path, and fires hedged
// duplicate tasks against stragglers (Starling §straggler mitigation).
//
// Everything is priced in SIMULATED milliseconds — task duration =
// compute (scanned bytes / vCPU throughput) + exchange I/O latency +
// any deterministic per-path slow penalty (FaultInjectingStorage slow
// rules) + accumulated retry backoff — so hedging decisions are
// reproducible regardless of thread interleaving or wall-clock noise.
// Commit is first-writer-wins in simulated time: both attempts of a task
// may finish physically, but the one with the earlier simulated
// completion holds the commit slot; the loser's object is deleted and
// its bytes never reach billing. Results, bytes_scanned, and bills are
// therefore byte-identical across serial, parallel, and hedged runs.
#pragma once

#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/event_log.h"
#include "common/trace.h"
#include "exec/profile.h"
#include "storage/buffer_cache.h"
#include "turbo/shuffle/stage_graph.h"

namespace pixels {

/// Shuffle knobs, threaded from CoordinatorParams via CfWorkerOptions.
struct ShuffleOptions {
  /// Master switch (`cf_shuffle`). Off (default) preserves today's
  /// single-stage CF behavior exactly.
  bool enabled = false;
  /// Consumer fan-out: number of hash partitions / stage-J tasks
  /// (0 = the CF fleet size).
  int partitions = 0;
  /// Producer fan-out: tasks per scan stage, clamped by the partitioned
  /// table's file count (0 = the CF fleet size).
  int producer_tasks = 0;
  /// Hedged duplicate invocation of straggler tasks.
  bool hedging = true;
  /// Hedge delay quantile (percentile, [0,100]): the hedge cutoff is
  /// Percentile(primary durations, hedge_quantile) * hedge_delay_factor.
  /// Tasks still running at the cutoff get a duplicate.
  double hedge_quantile = 75.0;
  double hedge_delay_factor = 1.5;
  /// Path prefix for exchange objects; swept on completion AND failure.
  /// Empty = derived by the CF driver from its view prefix.
  std::string object_prefix;
  /// Forced chunk Encoding id (exchange.h); -1 = heuristic per chunk.
  int forced_encoding = -1;
  /// Deterministic per-path slow penalty (simulated ms) added to a task
  /// attempt's duration — wire to FaultInjectingStorage::PathSlowMs to
  /// inject whole-task stragglers. Null = no penalty.
  std::function<double(const std::string&)> path_slow_ms;
};

/// First-writer-wins commit table for (stage, task) slots, ordered by
/// simulated completion time (ties break to the lower attempt rank, i.e.
/// the primary). Thread-safe; the winner is a pure function of the
/// offered claims, never of thread arrival order.
class ExchangeCommitTable {
 public:
  struct Claim {
    int attempt_rank = -1;     // 0 = primary, 1 = hedge
    double completion_ms = 0;  // simulated completion time
    std::string path;          // exchange object (empty for consumers)
  };

  /// Offers a claim; returns true when it took (or already held) the
  /// slot. The displaced loser, when any, is copied to `loser`.
  bool Offer(int stage, int task, const Claim& claim,
             Claim* loser = nullptr);
  /// Current holder (attempt_rank -1 when nothing committed).
  Claim Get(int stage, int task) const;

 private:
  mutable std::mutex mutex_;
  std::map<std::pair<int, int>, Claim> slots_;
};

/// Everything the scheduler needs from the CF execution context, kept
/// separate from CfWorkerOptions to avoid a header cycle.
struct ShuffleRunParams {
  Catalog* catalog = nullptr;
  /// Exchange object storage (the catalog's store in production).
  Storage* store = nullptr;
  ShuffleOptions shuffle;
  IoOptions io;
  /// CF fleet size: default fan-in/fan-out when the knobs are 0.
  int num_workers = 8;
  double bytes_per_vcpu_second = 100e6;
  int fleet_parallelism = 0;
  int worker_parallelism = 1;
  int max_task_attempts = 3;
  double retry_backoff_ms = 200.0;
  bool vm_fallback = true;
  bool runtime_filters = true;
  Tracer* tracer = nullptr;
  uint64_t trace_parent = 0;
  QueryProfile* profile = nullptr;
  /// Audit event log: stage start/commit/done progress events. Emissions
  /// happen only at deterministic points (stage setup before the parallel
  /// section; the post-barrier winner-resolution loop, in task order), so
  /// identical runs export byte-identical logs. Null = off.
  EventLog* event_log = nullptr;
};

/// Outcome of a shuffle DAG run.
struct ShuffleExecution {
  /// Concatenated stage-J outputs in partition order — the materialized
  /// view that re-enters the top-level plan.
  TablePtr view;
  int stages = 0;
  /// Committed tasks across stages (excluding VM fallbacks).
  int tasks = 0;
  int task_retries = 0;
  int tasks_recovered = 0;
  int tasks_fallback = 0;
  uint64_t fallback_bytes_scanned = 0;
  int hedges_fired = 0;
  int hedges_won = 0;
  /// Scan bytes of committed attempts only (hedge losers un-billed).
  uint64_t bytes_scanned = 0;
  uint64_t exchange_bytes_written = 0;  // winner objects only
  uint64_t exchange_bytes_read = 0;     // consumer combined reads
  double retry_backoff_simulated_ms = 0;
  /// Runtime-filter totals of committed attempts (merged in task order).
  RfStats rf;
  /// Intermediate objects removed by the end-of-run GC sweep.
  size_t objects_swept = 0;
  /// Simulated wall per stage, index-aligned with the DAG (L, R, J).
  std::vector<double> stage_wall_ms;
  /// Simulated makespan of the DAG (max(L, R) + J).
  double critical_path_ms = 0;
  /// Per-task simulated completion times of the final (J) stage, for
  /// straggler-recovery analysis in the bench.
  std::vector<double> final_stage_task_ms;
};

/// Runs the three-stage shuffle DAG for `graph`. The exchange prefix
/// (`params.shuffle.object_prefix`) is swept before returning on success;
/// callers must also sweep on failure paths (SweepExchangePrefix).
Result<ShuffleExecution> ExecuteShuffleDag(const StageGraph& graph,
                                           const ShuffleRunParams& params);

}  // namespace pixels
