// Row-at-a-time evaluation of a bound expression: the semantics reference
// of the column kernels (exec/expression.h), their path for scalar
// functions and the source of their error statuses, and the optimizer's
// constant folder.
#pragma once

#include <string>

#include "common/result.h"
#include "format/batch.h"
#include "sql/ast.h"

namespace pixels {

/// Evaluates `expr` for row `row` of `batch`. AND/OR and CASE skip
/// subexpressions per row, and errors surface per row. A CASE or coalesce
/// typed kDouble returns its int branches as doubles.
Result<Value> EvaluateExprRow(const Expr& expr, const RowBatch& batch,
                              size_t row);

/// SQL LIKE with % and _ wildcards.
bool LikeMatch(const std::string& text, const std::string& pattern);

}  // namespace pixels
