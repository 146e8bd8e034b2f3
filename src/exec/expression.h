// Expression evaluation over row batches. Supports the full AST: scalar
// arithmetic/comparison/logic, LIKE, BETWEEN, IN, IS NULL, CASE, string
// and date scalar functions, and CAST.
#pragma once

#include "common/result.h"
#include "format/batch.h"
#include "sql/ast.h"

namespace pixels {

/// Evaluates `expr` against every row of `batch`, returning a vector of
/// the same length: the one batch evaluator every operator uses. Column
/// references resolve by qualified name with the batch's relaxed
/// matching rules; a bare reference returns the column itself.
///
/// Column refs, literals (as scalar operands), arithmetic, comparisons,
/// Kleene AND/OR/NOT, BETWEEN, IN, IS [NOT] NULL, searched CASE and
/// `string LIKE 'literal'` run as typed loops over whole columns;
/// subtrees with no column fold to one scalar. Any other shape (scalar
/// functions over columns, `||`, LIKE on a non-string) and any kernel
/// error reruns the whole expression through EvaluateExprRow, so values,
/// nulls, error statuses and the output type are always exactly those of
/// BuildVectorFromValues over the per-row results.
Result<ColumnVectorPtr> EvaluateExpr(const Expr& expr, const RowBatch& batch);

/// Evaluates `expr` for a single row. The semantics reference: AND/OR and
/// CASE skip subexpressions per row, and errors surface per row.
Result<Value> EvaluateExprRow(const Expr& expr, const RowBatch& batch,
                              size_t row);

/// SQL LIKE with % and _ wildcards.
bool LikeMatch(const std::string& text, const std::string& pattern);

/// Builds a typed vector from scalar values: strings force kString, any
/// double forces kDouble, otherwise kInt64 (all-null defaults to kInt64).
Result<ColumnVectorPtr> BuildVectorFromValues(const std::vector<Value>& values);

}  // namespace pixels
