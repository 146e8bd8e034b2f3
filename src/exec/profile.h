// Per-operator execution profiles (EXPLAIN ANALYZE). When profiling is
// requested — `trace_level=full` on the coordinator, or an
// `EXPLAIN ANALYZE <select>` statement — every built operator is wrapped
// in a ProfilingOperator that counts rows/batches out and, for scan
// nodes, attributes the query's scanned bytes and chunk-cache traffic to
// the operator that caused them. The counters roll up into a plan-shaped
// text report attached to QueryRecord/StatusView.
//
// Attribution invariant: scan nodes measure deltas of the shared
// ExecContext counters around their own Open/Next calls. Pulls are
// serial from the root and a scan's morsel ParallelFor completes inside
// its Next (prefetch is advisory and never touches the counters), so
// per-operator `bytes_scanned` sums exactly to ExecContext::bytes_scanned.
//
// Counters are atomic so a future parallel driver stays safe; node
// creation is mutex-guarded in the arena.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "exec/operator.h"

namespace pixels {

/// Counters for one physical operator in the plan tree.
struct OperatorProfile {
  std::string name;  // e.g. "Scan(tpch.lineitem)", "HashJoin"
  OperatorProfile* parent = nullptr;
  std::vector<OperatorProfile*> children;  // creation order
  /// True for nodes that attribute I/O (scans, CF worker aggregates):
  /// their `bytes_scanned` partitions the context's total.
  bool measures_io = false;

  std::atomic<uint64_t> rows_out{0};
  std::atomic<uint64_t> batches_out{0};
  std::atomic<uint64_t> bytes_scanned{0};
  std::atomic<uint64_t> cache_hits{0};
  std::atomic<uint64_t> cache_misses{0};
  /// Runtime-filter work attributed to this node (scans only; all zero
  /// when no filter was published). `rf_skipped_bytes` counts billed
  /// bytes genuinely avoided by pruning whole row groups — it is NOT part
  /// of `bytes_scanned`, which keeps summing exactly to the context total.
  std::atomic<uint64_t> rf_probe_rows{0};
  std::atomic<uint64_t> rf_pruned_rows{0};
  std::atomic<uint64_t> rf_pruned_row_groups{0};
  std::atomic<uint64_t> rf_skipped_bytes{0};
  /// Cumulative wall time inside this operator's Open+Next (includes
  /// children — the usual EXPLAIN ANALYZE convention).
  std::atomic<uint64_t> wall_us{0};

  void AddRf(const RfStats& rf) {
    rf_probe_rows.fetch_add(rf.probe_rows, std::memory_order_relaxed);
    rf_pruned_rows.fetch_add(rf.pruned_rows, std::memory_order_relaxed);
    rf_pruned_row_groups.fetch_add(rf.pruned_row_groups,
                                   std::memory_order_relaxed);
    rf_skipped_bytes.fetch_add(rf.skipped_bytes, std::memory_order_relaxed);
  }
};

/// Arena + report for one query's operator profiles. Node addresses are
/// stable for the life of the profile (deque arena), so operators on pool
/// threads can hold bare pointers.
class QueryProfile {
 public:
  /// Creates a node under `parent` (null = a root). Thread-safe.
  OperatorProfile* AddNode(const std::string& name, OperatorProfile* parent,
                           bool measures_io = false);

  /// Sum of `bytes_scanned` over every io-measuring node — by the
  /// attribution invariant, equal to ExecContext::bytes_scanned.
  uint64_t TotalBytesScanned() const;

  std::vector<const OperatorProfile*> Roots() const;
  size_t size() const;
  bool empty() const { return size() == 0; }

  /// Plan-shaped indented report, one line per operator:
  ///   HashAgg  rows=4 batches=1 wall_us=123
  ///     Scan(tpch.lineitem)  rows=6005 ... bytes_scanned=52114 cache_hits=3
  /// Row/byte counters are deterministic; wall_us is measured.
  std::string ToText() const;

 private:
  mutable std::mutex mutex_;
  std::deque<OperatorProfile> arena_;
};

/// Decorator counting rows/batches (and, for io-measuring nodes, deltas
/// of the context's scan counters) around the wrapped operator.
class ProfilingOperator : public Operator {
 public:
  ProfilingOperator(OperatorPtr child, OperatorProfile* node,
                    ExecContext* ctx)
      : child_(std::move(child)), node_(node), ctx_(ctx) {}

  Status Open() override;
  /// Forwards the wrapped operator's batches untouched, so profiling
  /// never forces a gather; rows_out counts selected (logical) rows.
  Result<SelBatch> Next() override;
  void Close() override { child_->Close(); }

 private:
  OperatorPtr child_;
  OperatorProfile* node_;
  ExecContext* ctx_;
};

}  // namespace pixels
