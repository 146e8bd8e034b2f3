// Full-materialization sort operator (ORDER BY).
#pragma once

#include "exec/operator.h"
#include "plan/logical_plan.h"

namespace pixels {

/// Materializes the child stream, sorts rows by the plan's order keys
/// (nulls first on ASC, last on DESC; stable), and emits one batch.
class SortOperator : public Operator {
 public:
  SortOperator(OperatorPtr child, const LogicalPlan& plan)
      : child_(std::move(child)), plan_(plan) {}

  Status Open() override;
  Result<SelBatch> Next() override;
  void Close() override { child_->Close(); }

 private:
  OperatorPtr child_;
  const LogicalPlan& plan_;
  RowBatchPtr sorted_;
  bool emitted_ = false;
};

}  // namespace pixels
