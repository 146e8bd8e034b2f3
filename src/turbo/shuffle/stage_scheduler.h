// Stage scheduler for CF execution. RunStage is the one place that
// launches, retries (bounded budget, exponential backoff), degrades to the
// VM path, hedges (Starling §straggler mitigation) and commits CF tasks.
// The single-stage fleet (cf_worker.cc) is a one-stage DAG on it; the
// multi-stage shuffle is three stages: produce-left, produce-right, join.
//
// Everything is priced in SIMULATED milliseconds — task duration =
// compute (scanned + ingested exchange bytes / vCPU throughput) + exchange
// I/O latency + any deterministic per-path slow penalty
// (FaultInjectingStorage slow rules) + accumulated retry backoff — so
// hedging decisions are reproducible regardless of thread interleaving or
// wall-clock noise. Commit is first-writer-wins in simulated time: both
// attempts of a task may finish physically, but the one with the earlier
// simulated completion holds the commit slot; the loser's object is
// deleted and its bytes never reach billing. Results, bytes_scanned, and
// bills are therefore byte-identical across serial, parallel, and hedged
// runs.
#pragma once

#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "turbo/cf_worker.h"
#include "turbo/shuffle/stage_graph.h"

namespace pixels {

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

/// One task attempt's output. Only the committed attempt's counters
/// reach CfExecution; failed and losing attempts are discarded.
struct TaskOutcome {
  /// The fragment's table is the task's view rows (single-stage and join
  /// tasks); producers drop it once their exchange object is written.
  FragmentRun fragment;
  uint64_t rows = 0;
  /// Object this attempt wrote (empty = none); deleted if it loses.
  std::string object;
  uint64_t exchange_bytes_written = 0;  // producers
  uint64_t exchange_bytes_read = 0;     // consumers
  /// Simulated exchange I/O latency of the attempt.
  double io_ms = 0;
};

/// Runs one attempt of task `task`. `attempt_path` is unique per attempt
/// (<prefix>/s<stage>/t<task>.a<k>, .vm or .h); `vm_fallback` marks the
/// attempt the coordinator runs inline on the VM path.
using TaskRunner = std::function<Result<TaskOutcome>(
    size_t task, const std::string& attempt_path, uint64_t attempt_span,
    bool vm_fallback)>;

/// One stage of a CF DAG.
struct StageSpec {
  int id = 0;
  std::string name;
  size_t tasks = 0;
  /// Attempt-path prefix, and the store losing attempts' objects are
  /// deleted from (null = attempts write nothing).
  std::string prefix;
  Storage* store = nullptr;
  /// Fire hedged duplicates against stragglers.
  bool hedge = false;
  uint64_t parent_span = 0;
  OperatorProfile* parent_node = nullptr;
};

/// A stage's committed attempts and timings.
struct StageOutcome {
  std::vector<TaskOutcome> winners;  // per task
  /// Simulated stage wall: the latest committed completion.
  double wall_ms = 0;
  /// Measured wall-clock seconds per task (0 for VM fallbacks) and for
  /// the primary wave as a whole.
  std::vector<double> task_elapsed_seconds;
  double elapsed_seconds = 0;
  /// Each task's primary run, from the start of the primary wave.
  std::vector<WorkerInterval> task_intervals;

  /// The committed tables concatenated in task order — deterministic
  /// regardless of fleet interleaving or hedge outcomes. For stages whose
  /// tasks keep their tables (single-stage fleet, join).
  TablePtr ConcatTables() const;
};

/// Runs one stage: the primary wave with retry/backoff, then the VM
/// fallbacks serially in task order, then (if `stage.hedge`) the hedge
/// wave, then first-writer-wins resolution. The committed attempts'
/// counters are merged into `exec` on the calling thread, in task order;
/// DAG-level counters (shuffle_stages, stage walls) are the caller's.
Result<StageOutcome> RunStage(const CfWorkerOptions& options,
                              const StageSpec& stage, const TaskRunner& run,
                              CfExecution* exec);

/// Runs the three-stage shuffle DAG for `graph` with its exchange objects
/// under `options.view_prefix + "/shuffle"`, filling the counters of
/// `exec`. The objects stay for the caller's end-of-query sweep
/// (ExecuteWithCfPushdown). Returns the view: the join stage's outputs
/// concatenated in partition order.
Result<TablePtr> ExecuteShuffleDag(const StageGraph& graph, Catalog* catalog,
                                   const CfWorkerOptions& options,
                                   CfExecution* exec);

}  // namespace pixels
