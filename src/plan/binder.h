// Binder: resolves a parsed SelectStmt against the catalog and produces a
// logical plan — name resolution, aggregate extraction, and validation.
#pragma once

#include "catalog/catalog.h"
#include "plan/logical_plan.h"
#include "sql/ast.h"

namespace pixels {

/// Binds `stmt` against `catalog`, resolving unqualified tables in
/// database `db`. Produces an unoptimized logical plan:
///   Scan/Join → Filter(where) → [Aggregate → Filter(having)] → Project
///   → [Distinct] → [Sort] → [Limit]
/// with every expression typed by BindTypes's rules against its input.
Result<PlanPtr> BindSelect(const SelectStmt& stmt, const Catalog& catalog,
                           const std::string& db);

/// Sets Expr::type on every untyped node of `e`, bottom-up, over input
/// columns `input`, by the rules BindSelect types with (DESIGN.md
/// "Types"):
///  * a column ref takes its input column's type (FindName's rules);
///  * a computed node takes kInt64, kDouble or kString: comparisons and
///    logic kInt64; + - * / kDouble when an operand is double, else
///    kInt64; % kInt64; CASE and coalesce unify their branches (int with
///    double is kDouble, string with number a TypeError, NULL-only
///    branches take the others' type); a NULL literal alone is kInt64;
///  * COUNT is kInt64, AVG kDouble, SUM kDouble over a double argument
///    and kInt64 otherwise, MIN/MAX the argument's payload type.
/// A typed subtree is kept as it is. Unknown columns, functions and
/// operators fail with the status evaluation would return.
Status BindTypes(Expr* e, const PlanSchema& input);

/// Convenience: parse + bind.
Result<PlanPtr> PlanQuery(const std::string& sql, const Catalog& catalog,
                          const std::string& db);

}  // namespace pixels
