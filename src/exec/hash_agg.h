// Hash aggregation supporting sum/count/avg/min/max, DISTINCT arguments,
// grouped and global aggregation, and the partial/merge modes used by the
// CF sub-plan split (see plan/subplan.h for the partial-state layout).
#pragma once

#include <string>
#include <vector>

#include "exec/hash_table.h"
#include "exec/operator.h"
#include "plan/logical_plan.h"

namespace pixels {

/// Groups live in typed open-addressing tables keyed on batch-
/// precomputed hashes (exec/hash_table.h). Open picks one typed state per
/// aggregate from its function and bound argument type (a count array,
/// an int or double NumAggState array, or a string min/max array), and
/// every batch folds into it as a flat loop over the child's selection
/// vector (no Value boxing, per-row key serialization, or gather after a
/// Filter unless SelBatch::Evaluate's seam rule asks for one). A DISTINCT
/// argument first keeps only the (group, value) pairs new to a second
/// GroupTable. At parallelism 1 the input is consumed streaming (one
/// batch resident at a time). At parallelism N, input batches are
/// collected, key/argument expressions are evaluated batch-parallel, and
/// groups are built partition-parallel (partition = hash(key) % N); each
/// partition scans rows in batch-then-row order, so group contents and
/// emit order are deterministic. The CF merge mode folds the partial-
/// state columns through the same loops, in one partition.
class HashAggOperator : public Operator {
 public:
  HashAggOperator(OperatorPtr child, const LogicalPlan& plan, ExecContext* ctx)
      : child_(std::move(child)), plan_(plan), ctx_(ctx) {}

  Status Open() override;
  Result<SelBatch> Next() override;
  void Close() override { child_->Close(); }

 private:
  /// How one aggregate folds its input column(s).
  enum class AggKind : uint8_t {
    kCount,       // COUNT(*): every row; COUNT(x): non-null rows
    kAddCounts,   // merge COUNT: sums the partial counts
    kInt,         // NumAggState over int payloads (a string reads as 0)
    kDouble,      // NumAggState over doubles
    kString,      // string MIN/MAX
    kMergeAvg,    // merge AVG: sums $sum into sum_d and $cnt into count
  };

  /// Running SUM/AVG/MIN/MAX state of one group.
  struct NumAggState {
    int64_t count = 0;
    int64_t sum_i = 0;
    double sum_d = 0;
    int64_t min_i = 0;
    int64_t max_i = 0;
    double min_d = 0;
    double max_d = 0;
  };
  struct StrMinMax {
    bool has = false;
    std::string min;
    std::string max;
  };

  /// One partition of the aggregation state (a single partition at
  /// parallelism 1 and in merge mode): distinct keys in the table, and
  /// per aggregate the state array its kind uses, indexed by group id.
  struct TypedPart {
    GroupTable table;
    std::vector<std::vector<int64_t>> counts;
    std::vector<std::vector<NumAggState>> nums;
    std::vector<std::vector<StrMinMax>> strs;
    /// Per aggregate, the (group id, value) pairs a DISTINCT one has seen.
    std::vector<GroupTable> distinct;
  };
  /// A batch prepared for aggregation: evaluated key/input columns and
  /// per-row key hashes, lined up with `in` (the upstream batch, or its
  /// gather when SelBatch::Evaluate gathered).
  struct TypedBatch {
    SelBatch in;
    std::vector<ColumnVectorPtr> key_cols;
    std::vector<ColumnVectorPtr> arg_cols;  // per aggregate; null for COUNT(*)
    std::vector<ColumnVectorPtr> cnt_cols;  // per aggregate; merge AVG's $cnt
    std::vector<uint64_t> hashes;
  };

  /// Serial streaming (par <= 1) or collect + partition-parallel build.
  Status Consume(int par);
  Status PrepareTypedBatch(TypedBatch* tb) const;
  /// Folds the rows of `tb` owned by partition `p` (hash % num_parts)
  /// into that partition's table and states.
  Status ApplyTypedBatch(TypedPart* part, const TypedBatch& tb, size_t p,
                         size_t num_parts) const;
  /// Builds the output batch from the state arrays, one typed column per
  /// group key and aggregate (two for a partial AVG); a global
  /// aggregation over no rows emits one row of empty states.
  Result<RowBatchPtr> TypedEmit();

  OperatorPtr child_;
  const LogicalPlan& plan_;
  ExecContext* ctx_;
  std::vector<AggKind> kinds_;  // per aggregate
  std::vector<TypedPart> typed_parts_;
  /// Group keys, then one input per aggregate (null for COUNT(*)), then
  /// one more per aggregate (merge AVG's $cnt, else null).
  std::vector<const Expr*> inputs_;
  /// Merge mode's column refs to the partial-state columns.
  std::vector<ExprPtr> merge_refs_;
  bool emitted_ = false;
};

}  // namespace pixels
