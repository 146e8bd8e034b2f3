// Expression evaluation over row batches. Supports the full AST: scalar
// arithmetic/comparison/logic, LIKE, BETWEEN, IN, IS NULL, CASE, string
// and date scalar functions, and CAST.
#pragma once

#include "common/result.h"
#include "format/batch.h"
#include "sql/ast.h"
#include "sql/row_eval.h"

namespace pixels {

/// Evaluates `expr` against every row of `batch`, returning a vector of
/// the same length: the one batch evaluator every operator uses. Column
/// references resolve by qualified name with the batch's relaxed
/// matching rules; a bare reference returns the column itself. Any other
/// expression must be typed (plan/binder.h BindTypes; an untyped node is
/// an Internal error) and the result has exactly its bound type, for
/// empty, all-null and sparse batches alike.
///
/// Column refs, literals (as scalar operands), arithmetic, comparisons,
/// Kleene AND/OR/NOT, BETWEEN, IN, IS [NOT] NULL, searched CASE and
/// `string LIKE 'literal'` run as typed loops over whole columns;
/// subtrees with no column fold to one scalar. Any other shape (scalar
/// functions over columns, `||`, LIKE on a non-string) and any kernel
/// error reruns the whole expression through EvaluateExprRow, so values,
/// nulls and error statuses are always exactly those of the row
/// evaluator, built into the bound type.
Result<ColumnVectorPtr> EvaluateExpr(const Expr& expr, const RowBatch& batch);

/// Builds a vector of `type` from scalar values, converting numerics as
/// ColumnVector::AppendValue does (a string next to a number is a
/// TypeError).
Result<ColumnVectorPtr> BuildVectorFromValues(const std::vector<Value>& values,
                                              TypeId type);

}  // namespace pixels
