// Row-at-a-time reference for EvaluateExpr: every row through
// EvaluateExprRow, the whole result typed by BuildVectorFromValues, and a
// bare column reference returned as the column itself. The column-kernel
// evaluator must match it in values, nulls, output type and status.
#pragma once

#include <vector>

#include "exec/expression.h"

namespace pixels {

inline Result<ColumnVectorPtr> ReferenceEvaluate(const Expr& expr,
                                                 const RowBatch& batch) {
  if (expr.kind == Expr::Kind::kColumnRef) {
    const int idx = batch.FindColumn(expr.QualifiedName());
    if (idx < 0) {
      return Status::InvalidArgument("column not found at execution: " +
                                     expr.QualifiedName());
    }
    return batch.column(static_cast<size_t>(idx));
  }
  std::vector<Value> values;
  values.reserve(batch.num_rows());
  for (size_t row = 0; row < batch.num_rows(); ++row) {
    PIXELS_ASSIGN_OR_RETURN(Value v, EvaluateExprRow(expr, batch, row));
    values.push_back(std::move(v));
  }
  return BuildVectorFromValues(values);
}

}  // namespace pixels
