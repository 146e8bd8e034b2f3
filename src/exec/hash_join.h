// Hash join (equi-keys extracted from the condition) with nested-loop
// fallback for non-equi and cross joins. Inner and left-outer supported.
#pragma once

#include "exec/hash_table.h"
#include "exec/operator.h"
#include "plan/logical_plan.h"

namespace pixels {

/// Joins children[0] (probe/left) with children[1] (build/right).
///
/// The build side is concatenated into one column set plus a trailing
/// all-null row (the LEFT JOIN padding row), so a build row is one
/// uint32_t id. Equi-joins build typed open-addressing tables
/// (exec/hash_table.h) keyed on batch-precomputed hashes and pre-sized
/// from the exact build row count: key expressions are evaluated
/// batch-parallel, then each of the P partitions builds its own table in
/// parallel (P = the query's parallelism degree). Insertion order within
/// a partition is build row order regardless of thread scheduling, so
/// results — including the order of duplicate build-key matches within a
/// probe row — are deterministic. Cross joins and joins without an equi
/// conjunct run as a nested loop over the build rows.
///
/// The probe runs in two phases per probe batch. The match phase fills
/// (probe row, build row) arrays: a prefetched batch probe of the tables,
/// or every build row for the nested loop. The gather phase then does one
/// typed ColumnVector::Gather per output column, and only for the columns
/// the plan keeps (LogicalPlan::columns, set by the optimizer's join
/// output pruning). A residual or nested-loop condition first runs over
/// a batch of just the columns it reads and narrows the match arrays.
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
  /// Splits the condition into probe/build keys and a residual.
  Status ExtractKeys();
  /// Collects and concatenates the build side; for equi-joins, builds the
  /// partitioned typed tables (payload = build row id).
  Status BuildSide();
  /// After the hash build, publish a bloom + min/max filter on the
  /// annotated build key (plan_.rf_id) so probe-side scans can prune rows
  /// and whole row groups. No-op when the annotation is absent, the key
  /// is not a simple column, or runtime filters are disabled.
  Status PublishRuntimeFilter();
  /// Picks the probe and build columns the output keeps and the condition
  /// reads, by name, from the first probe batch's columns.
  void ResolveColumns(const RowBatch& probe);
  /// Gather phase over matches_: runs the residual condition (if any) and
  /// gathers the kept columns. Returns null when the residual filtered
  /// every pair out (caller pulls the next probe batch).
  Result<RowBatchPtr> Gather(const RowBatch& probe);
  /// One typed Gather per listed probe and build column at matches_.
  RowBatchPtr GatherColumns(const RowBatch& probe,
                            const std::vector<size_t>& probe_cols,
                            const std::vector<size_t>& build_cols) const;

  OperatorPtr left_;
  OperatorPtr right_;
  const LogicalPlan& plan_;
  ExecContext* ctx_;

  /// The build side, one vector per column, build_rows_ rows plus the
  /// all-null padding row at index build_rows_.
  std::vector<ColumnVectorPtr> build_cols_;
  uint32_t build_rows_ = 0;
  /// Per build batch, the evaluated key columns; kept only until the
  /// runtime filter is published.
  std::vector<std::vector<ColumnVectorPtr>> build_keys_;
  /// Build tables, partitioned by key hash % size.
  std::vector<JoinTable> tables_;
  std::vector<ExprPtr> left_keys_;
  std::vector<const Expr*> probe_keys_;  // left_keys_, for SelBatch::Evaluate
  std::vector<ExprPtr> right_keys_;
  /// The condition the gather phase runs: the non-equi conjuncts, or for
  /// a nested loop the whole join condition (null when there is none).
  ExprPtr filter_;
  bool use_hash_ = false;
  std::vector<std::string> right_names_;  // output columns of build side

  bool columns_resolved_ = false;
  std::vector<size_t> probe_out_, build_out_;        // kept columns
  std::vector<size_t> probe_filter_, build_filter_;  // filter_'s columns
  JoinMatches matches_;
};

}  // namespace pixels
