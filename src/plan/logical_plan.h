// Logical query plan. The executor interprets this tree directly; the
// CF sub-plan splitter (subplan.h) cuts it at the materialized-view seam
// described in the paper (§3.1).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "format/batch.h"
#include "format/reader.h"
#include "sql/ast.h"

namespace pixels {

struct LogicalPlan;
using PlanPtr = std::shared_ptr<LogicalPlan>;

/// A node of the logical plan tree.
struct LogicalPlan {
  enum class Kind : uint8_t {
    kScan,        // base-table scan with projection + pushed predicates
    kFilter,      // row filter by predicate expression
    kProject,     // compute expressions, rename columns
    kJoin,        // children[0] ⋈ children[1]
    kAggregate,   // group by + aggregate functions
    kSort,        // order by
    kLimit,       // first n rows
    kDistinct,    // duplicate elimination over all columns
    kMaterializedView,  // inlined table (result of a CF sub-plan)
  };

  Kind kind;
  std::vector<PlanPtr> children;

  // kScan
  std::string db;
  std::string table;
  std::string table_alias;              // qualifier of output columns
  /// kScan: projection. kJoin: the output columns kept for operators
  /// above (set by the optimizer, in child output order). Empty = all.
  std::vector<std::string> columns;
  std::vector<ScanPredicate> pushed;    // zone-map pruning predicates
  /// Optional restriction to a subset of files / row groups (set by the
  /// CF partitioner). Empty = all.
  std::vector<std::string> file_subset;
  /// Runtime filters this scan should poll from the hub (annotated by the
  /// optimizer's PlanRuntimeFilters pass): `id` is the hub slot published
  /// by the matching join's build, `column` the bare probe-key column of
  /// this table. Advisory: a scan that finds no published filter reads
  /// everything.
  struct ScanRuntimeFilter {
    int id = -1;
    std::string column;
  };
  std::vector<ScanRuntimeFilter> runtime_filters;

  // kFilter
  ExprPtr predicate;

  // kProject
  std::vector<ExprPtr> exprs;
  std::vector<std::string> names;

  // kJoin
  JoinClause::Type join_type = JoinClause::Type::kInner;
  ExprPtr join_condition;  // null for cross join
  /// Runtime-filter annotation (inner joins only): after the hash build
  /// completes, publish a bloom + range filter on the build-side key
  /// whose qualified name is `rf_build_column` under hub slot `rf_id`.
  int rf_id = -1;
  std::string rf_build_column;

  // kAggregate
  std::vector<ExprPtr> group_exprs;
  std::vector<std::string> group_names;
  std::vector<ExprPtr> agg_exprs;       // each a kFunction aggregate call
  std::vector<std::string> agg_names;
  /// Partial mode: emit raw partial states (per-worker); final mode merges
  /// partials (used above a CF-partitioned sub-plan).
  bool partial = false;
  bool merge_partials = false;

  // kSort
  std::vector<OrderItem> order_by;

  // kLimit
  int64_t limit = -1;

  // kMaterializedView
  TablePtr view;
  std::vector<std::string> view_columns;

  /// Output column names of this node.
  std::vector<std::string> OutputColumns() const;
  /// OutputColumns().size(), without building the names.
  size_t NumOutputColumns() const;

  /// Single-line tree rendering for EXPLAIN and tests.
  std::string ToString(int indent = 0) const;

  /// Deep copy (shares materialized-view tables, clones expressions).
  PlanPtr Clone() const;

  /// True when the subtree contains a node of the given kind.
  bool Contains(Kind k) const;

  /// Sum of base-table bytes referenced by scans in this subtree; used by
  /// the coordinator to estimate work and by billing as scan upper bound.
  uint64_t EstimatedScanBytes(
      const std::function<uint64_t(const std::string&, const std::string&)>&
          table_bytes) const;
};

/// A plan node's output columns and their bound types.
struct PlanSchema {
  std::vector<std::string> names;
  std::vector<TypeId> types;
};

/// `plan`'s output columns in OutputColumns() order with their types: the
/// catalog's for scans, Expr::type for projections, the payload type of
/// each group key and the aggregate call's type for aggregations (a
/// partial AVG reports its call's type), a view's first batch (kInt64 for
/// a view without batches). Expressions must be bound (BindTypes).
/// `catalog` may be null when the subtree has no scan.
Result<PlanSchema> OutputSchema(const LogicalPlan& plan, const Catalog* catalog);

/// Factory helpers used by binder/optimizer/tests.
PlanPtr MakeScan(std::string db, std::string table, std::string alias);
PlanPtr MakeFilter(PlanPtr child, ExprPtr predicate);
PlanPtr MakeProject(PlanPtr child, std::vector<ExprPtr> exprs,
                    std::vector<std::string> names);
PlanPtr MakeJoin(PlanPtr left, PlanPtr right, JoinClause::Type type,
                 ExprPtr condition);
PlanPtr MakeLimit(PlanPtr child, int64_t limit);
PlanPtr MakeMaterializedView(TablePtr table);

}  // namespace pixels
