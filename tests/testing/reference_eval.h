// Row-at-a-time reference for EvaluateExpr: every row through
// EvaluateExprRow (testing/row_eval.h), built into the expression's bound
// type, and a bare column reference returned as the column itself. The
// column-kernel evaluator must match it in values, nulls, output type and
// status.
#pragma once

#include <string>
#include <vector>

#include "plan/binder.h"
#include "sql/parser.h"
#include "testing/row_eval.h"

namespace pixels {

/// The columns of `batch` with the types they hold.
inline PlanSchema SchemaOf(const RowBatch& batch) {
  PlanSchema out;
  for (size_t c = 0; c < batch.num_columns(); ++c) {
    out.names.push_back(batch.name(c));
    out.types.push_back(batch.column(c)->type());
  }
  return out;
}

/// Parses `text` and binds its types against the columns of `batch`.
inline Result<ExprPtr> BindExpr(const std::string& text, const RowBatch& batch) {
  PIXELS_ASSIGN_OR_RETURN(ExprPtr e, ParseExpression(text));
  PIXELS_RETURN_NOT_OK(BindTypes(e.get(), SchemaOf(batch)));
  return e;
}

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
  if (!expr.type) return Status::Internal("unbound: " + expr.ToString());
  std::vector<Value> values;
  values.reserve(batch.num_rows());
  for (size_t row = 0; row < batch.num_rows(); ++row) {
    PIXELS_ASSIGN_OR_RETURN(Value v, EvaluateExprRow(expr, batch, row));
    values.push_back(std::move(v));
  }
  return BuildVectorFromValues(values, *expr.type);
}

}  // namespace pixels
