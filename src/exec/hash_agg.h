// Hash aggregation supporting sum/count/avg/min/max, COUNT(DISTINCT),
// grouped and global aggregation, and the partial/merge modes used by the
// CF sub-plan split (see plan/subplan.h for the partial-state layout).
#pragma once

#include <map>
#include <set>

#include "exec/hash_table.h"
#include "exec/operator.h"
#include "plan/logical_plan.h"

namespace pixels {

/// Groups live in typed open-addressing tables keyed on batch-
/// precomputed hashes (exec/hash_table.h), and SUM/COUNT/MIN/MAX update as
/// typed flat loops over the child's selection vector (no Value boxing,
/// per-row key serialization, or gather after a Filter unless
/// SelBatch::Evaluate's seam rule asks for one). At parallelism 1
/// the input is consumed streaming (one batch resident at a time). At
/// parallelism N, input batches are collected, key/argument expressions
/// are evaluated batch-parallel, and groups are built partition-parallel
/// (partition = hash(key) % N); each partition scans rows in
/// batch-then-row order, so group contents and emit order are
/// deterministic. COUNT(DISTINCT) state and the CF partial-merge mode stay
/// on boxed AggState (cold, cross-worker format).
class HashAggOperator : public Operator {
 public:
  HashAggOperator(OperatorPtr child, const LogicalPlan& plan, ExecContext* ctx)
      : child_(std::move(child)), plan_(plan), ctx_(ctx) {}

  Status Open() override;
  Result<SelBatch> Next() override;
  void Close() override { child_->Close(); }

  /// Running state of one aggregate within one group (public so the
  /// typed update kernels in hash_agg.cc and the tests can touch it).
  struct AggState {
    double sum_d = 0;
    int64_t sum_i = 0;
    bool any_double = false;
    int64_t count = 0;
    bool has_minmax = false;
    Value min;
    Value max;
    std::set<std::string> distinct_keys;

    void Update(const Value& v, bool distinct);
  };

  struct Group {
    std::vector<Value> keys;
    std::vector<AggState> states;
  };

  /// Compact, trivially-copyable per-group state used while an
  /// aggregate's argument batches stay one numeric family (all
  /// int-kinds or all doubles). One cache line instead of ~200 bytes of
  /// AggState, so million-group updates stay dense; strings,
  /// COUNT(DISTINCT), and mid-stream type flips convert the accumulated
  /// state to AggState exactly and continue on the boxed loops.
  struct NumAggState {
    int64_t count = 0;
    int64_t sum_i = 0;
    double sum_d = 0;
    int64_t min_i = 0;
    int64_t max_i = 0;
    double min_d = 0;
    double max_d = 0;
    bool has_minmax = false;
  };

 private:
  /// Per-(partition, aggregate) state representation. kUnset means no
  /// row has reached this aggregate yet (its state is all-default).
  enum class AggMode : uint8_t { kUnset, kCountStar, kInt, kDouble, kGeneral };

  /// One partition of the typed aggregation state (a single partition at
  /// parallelism 1): distinct keys in the table, agg states per mode —
  /// a bare count per group for COUNT(*), a NumAggState per group for
  /// single-family numeric aggs, and boxed AggState (flat
  /// [group * num_aggs + agg]) only for the general fallback.
  struct TypedPart {
    GroupTable table;
    std::vector<AggMode> modes;                 // per aggregate
    std::vector<std::vector<int64_t>> counts;   // per aggregate, kCountStar
    std::vector<std::vector<NumAggState>> nums; // per aggregate, kInt/kDouble
    std::vector<AggState> states;               // kGeneral slots only
  };
  /// A batch prepared for typed aggregation: evaluated key/argument
  /// columns and per-row key hashes, lined up with `in` (the upstream
  /// batch, or its gather when SelBatch::Evaluate gathered).
  struct TypedBatch {
    SelBatch in;
    std::vector<ColumnVectorPtr> key_cols;
    std::vector<ColumnVectorPtr> arg_cols;
    std::vector<uint64_t> hashes;
  };

  /// Serial streaming (par <= 1) or collect + partition-parallel build.
  Status Consume(int par);
  /// CF final mode: folds per-worker partial states by group name.
  Status ConsumeMerge();
  Status PrepareTypedBatch(TypedBatch* tb) const;
  /// Folds the rows of `tb` owned by partition `p` (hash % num_parts)
  /// into that partition's table and states.
  Status ApplyTypedBatch(TypedPart* part, const TypedBatch& tb, size_t p,
                         size_t num_parts);
  /// Converts aggregate `a`'s compact states in `part` to boxed AggState
  /// (exact — the boxed state equals what AggState::Update would have
  /// built) and flips its mode to kGeneral.
  void ConvertTypedAggToGeneral(TypedPart* part, size_t a);
  /// Builds the output batch directly from the typed tables: keys are
  /// reboxed once from the KeyStore and aggregates finalize straight
  /// from their flat state arrays — no per-group Group construction.
  /// Output columns/types/order are identical to Emit's.
  Result<RowBatchPtr> TypedEmit();
  /// Emits the boxed `groups_` of the merge mode (or, for a global
  /// aggregation over an empty input, its one default row).
  Result<RowBatchPtr> Emit();

  OperatorPtr child_;
  const LogicalPlan& plan_;
  ExecContext* ctx_;
  std::map<std::string, size_t> group_index_;
  std::vector<Group> groups_;
  std::vector<TypedPart> typed_parts_;
  /// Group keys, then one argument per aggregate (null for COUNT(*)).
  std::vector<const Expr*> inputs_;
  bool emitted_ = false;
};

}  // namespace pixels
