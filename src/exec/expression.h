// Expression evaluation over row batches: one evaluator of typed column
// kernels for every shape the binder accepts (arithmetic, comparison,
// logic, LIKE, BETWEEN, IN, IS NULL, CASE, the string, math and date
// scalar functions, `||` and CAST).
#pragma once

#include <string>

#include "common/result.h"
#include "format/batch.h"
#include "sql/ast.h"

namespace pixels {

/// Evaluates `expr` against every row of `batch`, returning a vector of
/// the same length: the one batch evaluator every operator uses. Column
/// references resolve by qualified name with the batch's relaxed
/// matching rules; a bare reference returns the column itself. Any other
/// expression must be typed (plan/binder.h BindTypes; an untyped node is
/// an Internal error) and the result has exactly its bound type, for
/// empty, all-null and sparse batches alike.
///
/// Every node runs as a typed loop over whole columns, literals as scalar
/// operands; a subtree with no column below is one kernel pass over one
/// row, kept as a scalar. No kernel fails on a row: the binder rejects
/// the operand types a function or operator cannot take, `/` and `%` by
/// zero, `sqrt` of a negative and an unparsable CAST are NULL. So every
/// row may be evaluated, selected or not, and the only errors are a
/// column missing from `batch` and (Internal) a shape the binder would
/// not have accepted.
Result<ColumnVectorPtr> EvaluateExpr(const Expr& expr, const RowBatch& batch);

/// Evaluates a bound expression that references no column, as one kernel
/// pass over one row: the optimizer's constant fold.
Result<Value> EvaluateConstant(const Expr& expr);

/// SQL LIKE with % and _ wildcards.
bool LikeMatch(const std::string& text, const std::string& pattern);

}  // namespace pixels
