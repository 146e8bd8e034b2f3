// Rule-based logical optimizer: constant folding, predicate pushdown
// (into joins and scan zone maps), projection pruning, and join output
// pruning.
#pragma once

#include <span>

#include "catalog/catalog.h"
#include "plan/logical_plan.h"

namespace pixels {

struct OptimizerOptions {
  bool fold_constants = true;
  bool pushdown_predicates = true;
  bool prune_projections = true;
  /// Swap inner equi-join inputs so the smaller estimated side becomes
  /// the hash build side.
  bool optimize_join_order = true;
  /// Annotate inner equi-joins and their probe-side scans for runtime
  /// bloom/range filters (published at execution after the hash build).
  /// Superset-safe: results are identical with the pass off.
  bool runtime_filters = true;
};

/// Optimizes `plan` in place (returns the possibly-new root).
Result<PlanPtr> Optimize(PlanPtr plan, const Catalog& catalog,
                         OptimizerOptions options = {});

/// Folds literal-only subtrees of an expression into literals. Exposed
/// for tests and the NL benchmark's equivalence checks.
ExprPtr FoldConstants(ExprPtr expr);

/// Collects top-level AND-conjuncts of an expression (clones).
std::vector<ExprPtr> SplitConjuncts(const Expr& expr);

/// Rebuilds a conjunction from conjuncts (nullptr when empty).
ExprPtr CombineConjuncts(std::vector<ExprPtr> conjuncts);

/// The set of "qualifier.column" names an expression references.
void CollectColumnRefs(const Expr& expr, std::vector<std::string>* out);

/// Marks the columns of `cols` that the column refs in `refs` read: a
/// ref's exact name, else every column sharing its basename. That is a
/// superset of what RowBatch::FindColumn resolves (one such column is the
/// match; several keep the lookup ambiguous, as it is over all of `cols`).
std::vector<bool> ColumnsRead(const std::vector<std::string>& refs,
                              std::span<const std::string> cols);

/// Rough output-cardinality estimate of a plan subtree, from catalog row
/// counts with fixed selectivity factors (filter 0.25, join 1.0 of the
/// larger side). Used by the join-order rule; exposed for tests.
uint64_t EstimateRows(const LogicalPlan& plan, const Catalog& catalog);

}  // namespace pixels
