// Hash join (equi-keys extracted from the condition) with nested-loop
// fallback for non-equi and cross joins. Inner and left-outer supported.
#pragma once

#include "exec/hash_table.h"
#include "exec/operator.h"
#include "plan/logical_plan.h"

namespace pixels {

/// Joins children[0] (probe/left) with children[1] (build/right).
///
/// Equi-joins build typed open-addressing tables (exec/hash_table.h)
/// keyed on batch-precomputed hashes and pre-sized from the exact build
/// row count, and the probe evaluates its keys through
/// SelBatch::Evaluate and iterates the selection it returns (no Value
/// boxing, key serialization, or post-Filter gather).
/// The build side is partitioned by key hash: key expressions are
/// evaluated batch-parallel, then each of the P partitions builds its own
/// table in parallel (P = the query's parallelism degree). Insertion
/// order within a partition is batch-then-row order regardless of thread
/// scheduling, so results — including the order of duplicate build-key
/// matches within a probe row — are deterministic. Cross joins and joins
/// without an equi conjunct run as a nested loop over the build rows.
class HashJoinOperator : public Operator {
 public:
  HashJoinOperator(OperatorPtr left, OperatorPtr right,
                   const LogicalPlan& plan, ExecContext* ctx)
      : left_(std::move(left)),
        right_(std::move(right)),
        plan_(plan),
        ctx_(ctx) {}

  Status Open() override;
  Result<SelBatch> Next() override;
  void Close() override;

 private:
  /// Collects the build side; for equi-joins, builds the partitioned
  /// typed tables (payload = batch << 32 | row).
  Status BuildSide();
  /// Gathers matched probe rows, appends build columns, and applies the
  /// residual condition. Returns null when every pair was filtered out
  /// (caller pulls the next probe batch).
  Result<RowBatchPtr> CombineAndFilter(
      const RowBatchPtr& probe, const std::vector<uint32_t>& probe_sel,
      const std::vector<ColumnVectorPtr>& build_out);
  Status ExtractKeys(const RowBatch& left_sample, const RowBatch& right_sample);
  /// After the hash build, publish a bloom + min/max filter on the
  /// annotated build key (plan_.rf_id) so probe-side scans can prune rows
  /// and whole row groups. No-op when the annotation is absent, the key
  /// is not a simple column, or runtime filters are disabled.
  Status PublishRuntimeFilter();

  OperatorPtr left_;
  OperatorPtr right_;
  const LogicalPlan& plan_;
  ExecContext* ctx_;

  std::vector<RowBatchPtr> build_batches_;
  /// Build tables, partitioned by key hash % size.
  std::vector<JoinTable> tables_;
  bool keys_extracted_ = false;
  std::vector<ExprPtr> left_keys_;
  std::vector<const Expr*> probe_keys_;  // left_keys_, for SelBatch::Evaluate
  std::vector<ExprPtr> right_keys_;
  ExprPtr residual_;  // non-equi parts of the condition (may be null)
  bool use_hash_ = false;
  std::vector<std::string> right_names_;  // output columns of build side
  std::vector<TypeId> right_types_;
};

}  // namespace pixels
