#include "exec/sort.h"

#include <algorithm>

#include "exec/expression.h"

namespace pixels {

Status SortOperator::Open() {
  PIXELS_RETURN_NOT_OK(child_->Open());
  // Materialize all input into one combined batch.
  std::vector<RowBatchPtr> batches;
  while (true) {
    PIXELS_ASSIGN_OR_RETURN(SelBatch in, child_->Next());
    if (in.batch == nullptr) break;
    RowBatchPtr b = in.Materialize();
    if (b->num_rows() > 0) batches.push_back(std::move(b));
  }
  if (batches.empty()) {
    sorted_ = nullptr;
    return Status::OK();
  }
  RowBatchPtr combined;
  if (batches.size() == 1) {
    combined = batches[0];
  } else {
    combined = std::make_shared<RowBatch>();
    for (size_t c = 0; c < batches[0]->num_columns(); ++c) {
      auto col = MakeVector(batches[0]->column(c)->type());
      for (const auto& b : batches) {
        for (size_t r = 0; r < b->num_rows(); ++r) {
          col->AppendFrom(*b->column(c), r);
        }
      }
      combined->AddColumn(batches[0]->name(c), std::move(col));
    }
  }

  // Evaluate sort keys once per key over the combined batch.
  std::vector<ColumnVectorPtr> keys;
  for (const auto& item : plan_.order_by) {
    PIXELS_ASSIGN_OR_RETURN(ColumnVectorPtr col,
                            EvaluateExpr(*item.expr, *combined));
    keys.push_back(std::move(col));
  }

  std::vector<uint32_t> order(combined->num_rows());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<uint32_t>(i);
  std::stable_sort(order.begin(), order.end(),
                   [&](uint32_t a, uint32_t b) {
                     for (size_t k = 0; k < keys.size(); ++k) {
                       Value va = keys[k]->GetValue(a);
                       Value vb = keys[k]->GetValue(b);
                       int cmp = va.Compare(vb);
                       if (cmp == 0) continue;
                       return plan_.order_by[k].ascending ? cmp < 0 : cmp > 0;
                     }
                     return false;
                   });
  sorted_ = combined->Gather(order);
  return Status::OK();
}

Result<SelBatch> SortOperator::Next() {
  if (emitted_ || sorted_ == nullptr) return SelBatch{};
  emitted_ = true;
  return SelBatch{sorted_};
}

}  // namespace pixels
