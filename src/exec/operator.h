// Pull-based (Volcano-style, vectorized) physical operator interface: one
// batch method, `Next()`, returning a batch plus an optional selection.
#pragma once

#include <atomic>
#include <memory>

#include "catalog/catalog.h"
#include "common/thread_pool.h"
#include "exec/bloom_filter.h"
#include "format/batch.h"
#include "storage/buffer_cache.h"

namespace pixels {

struct Expr;
class MvStore;
class Tracer;
class QueryProfile;
struct OperatorProfile;

/// Shared execution state: catalog access, the query's parallelism policy,
/// and scan accounting that feeds billing ($/TB-scan) and the benches.
/// Scan counters are atomic so concurrent morsels and CF workers can bill
/// into one context without losing updates.
struct ExecContext {
  Catalog* catalog = nullptr;
  /// Encoded bytes fetched from storage by scans in this query.
  std::atomic<uint64_t> bytes_scanned{0};
  /// Rows produced by scans (post zone-map pruning, pre filtering).
  std::atomic<uint64_t> rows_scanned{0};
  /// Degree of intra-query parallelism: 0 = DefaultParallelism(),
  /// 1 = fully serial (deterministic single-thread execution).
  int parallelism = 0;
  /// Pool to run on; null = the process-wide ThreadPool::Shared().
  ThreadPool* pool = nullptr;
  /// I/O policy for scans: coalescing gap, shared chunk cache, footer
  /// cache, prefetch depth. Caching never changes `bytes_scanned` — a
  /// chunk served warm bills exactly like one fetched cold.
  IoOptions io;
  /// Chunk reads served from / missed in the shared buffer cache.
  std::atomic<uint64_t> cache_hits{0};
  std::atomic<uint64_t> cache_misses{0};
  /// Materialized-view store consulted by `ExecuteQuery` for full-query
  /// reuse (null disables MV reuse). Unlike the chunk cache, a hit here
  /// skips the scan entirely, so `bytes_scanned` stays 0 and the query
  /// server bills the saved bytes at the reuse discount instead.
  MvStore* mv_store = nullptr;
  /// MV reuse audit counters (flow into coordinator/server metrics).
  std::atomic<uint64_t> mv_hits{0};
  std::atomic<uint64_t> mv_saved_bytes{0};

  /// Join-build bloom/range filters pushed into probe-side scans. Range
  /// pruning skips whole row groups — genuinely fewer billed bytes, which
  /// is the point (the deltas are audited via rf_skipped_bytes). Results
  /// are identical on or off.
  bool runtime_filters = true;
  /// Per-query registry: joins publish filters after build, scans poll.
  RuntimeFilterHub rf_hub;
  /// Runtime-filter audit counters. Row counters cover bloom probes on
  /// decoded batches; the row-group/byte counters cover zone-map pruning
  /// from the published key range (bytes that were never fetched).
  std::atomic<uint64_t> rf_probe_rows{0};
  std::atomic<uint64_t> rf_pruned_rows{0};
  std::atomic<uint64_t> rf_pruned_row_groups{0};
  std::atomic<uint64_t> rf_skipped_bytes{0};

  /// Observability (all null/0 = off, the default; billing-exactness
  /// paths are untouched when off). `tracer` + `trace_parent` parent the
  /// executor's plan/MV-lookup spans; `profile` switches BuildOperator to
  /// wrapping every node in a ProfilingOperator (EXPLAIN ANALYZE), with
  /// `profile_parent` as the recursive build cursor.
  Tracer* tracer = nullptr;
  uint64_t trace_parent = 0;
  QueryProfile* profile = nullptr;
  OperatorProfile* profile_parent = nullptr;

  int EffectiveParallelism() const {
    return parallelism > 0 ? parallelism : DefaultParallelism();
  }
  ThreadPool* EffectivePool() const {
    return pool != nullptr ? pool : ThreadPool::Shared();
  }
};

/// Snapshot of one context's runtime-filter counters, summed across the
/// contexts (CF workers, shuffle tasks, VM fallbacks, final plan) that ran
/// parts of one query.
struct RfStats {
  uint64_t probe_rows = 0;
  uint64_t pruned_rows = 0;
  uint64_t pruned_row_groups = 0;
  uint64_t skipped_bytes = 0;

  static RfStats From(const ExecContext& ctx) {
    return {ctx.rf_probe_rows.load(), ctx.rf_pruned_rows.load(),
            ctx.rf_pruned_row_groups.load(), ctx.rf_skipped_bytes.load()};
  }
  RfStats& operator+=(const RfStats& o) {
    probe_rows += o.probe_rows;
    pruned_rows += o.pruned_rows;
    pruned_row_groups += o.pruned_row_groups;
    skipped_bytes += o.skipped_bytes;
    return *this;
  }
  /// Counter growth since an earlier snapshot `o` of the same context.
  RfStats operator-(const RfStats& o) const {
    return {probe_rows - o.probe_rows, pruned_rows - o.pruned_rows,
            pruned_row_groups - o.pruned_row_groups,
            skipped_bytes - o.skipped_bytes};
  }
};

/// A batch plus an optional selection vector: when `sel` is non-null,
/// only the listed rows (ascending) are logically present. Every operator
/// produces these; a dense producer returns `{batch, nullptr}`. Filter,
/// Distinct and Limit select without gathering, expression consumers
/// (Project, Filter, HashAgg, the HashJoin probe) evaluate through
/// `Evaluate()`, and consumers that need rows in place (Sort, the
/// HashJoin build, the HashAgg merge, the query result) call
/// `Materialize()`.
struct SelBatch {
  RowBatchPtr batch = nullptr;                     // null = end of stream
  std::shared_ptr<SelectionVector> sel = nullptr;  // null = every row selected

  size_t num_selected() const {
    if (batch == nullptr) return 0;
    return sel != nullptr ? sel->size() : batch->num_rows();
  }

  /// Gathers the selected rows into a plain batch (zero-copy when
  /// everything is selected or at end of stream).
  RowBatchPtr Materialize() const {
    if (batch == nullptr || sel == nullptr) return batch;
    if (sel->size() == batch->num_rows()) return batch;
    return batch->Gather(*sel);
  }

  /// The seam rule: evaluates `exprs` (a null entry yields a null column)
  /// for the selected rows, into `cols`, and returns the SelBatch the
  /// columns line up with. That is `*this` when at least a quarter of the
  /// rows are selected (no expression fails on a row, so the deselected
  /// ones may be evaluated too); otherwise the selected rows are gathered
  /// into a dense batch first. Every column has its expression's bound
  /// type.
  Result<SelBatch> Evaluate(const std::vector<const Expr*>& exprs,
                            std::vector<ColumnVectorPtr>* cols) const;
};

/// A physical operator producing a stream of (selected) row batches.
class Operator {
 public:
  virtual ~Operator() = default;

  /// Prepares the operator (recursively opens children).
  virtual Status Open() = 0;

  /// Produces the next batch; a null `batch` is end of stream.
  virtual Result<SelBatch> Next() = 0;

  /// Releases resources.
  virtual void Close() {}
};

using OperatorPtr = std::unique_ptr<Operator>;

}  // namespace pixels
