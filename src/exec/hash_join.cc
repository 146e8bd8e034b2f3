#include "exec/hash_join.h"

#include "exec/expression.h"
#include "exec/kernels.h"
#include "plan/optimizer.h"

namespace pixels {

namespace {

/// Relaxed membership: `ref` (qualified name) resolves in `cols`.
bool RefIn(const std::string& ref, const std::vector<std::string>& cols) {
  for (const auto& c : cols) {
    if (c == ref) return true;
  }
  // Basename match (unambiguous).
  auto base = [](const std::string& s) {
    size_t dot = s.rfind('.');
    return dot == std::string::npos ? s : s.substr(dot + 1);
  };
  int hits = 0;
  for (const auto& c : cols) {
    if (base(c) == base(ref)) ++hits;
  }
  return hits == 1;
}

bool AllRefsIn(const Expr& e, const std::vector<std::string>& cols) {
  std::vector<std::string> refs;
  CollectColumnRefs(e, &refs);
  if (refs.empty()) return false;
  for (const auto& r : refs) {
    if (!RefIn(r, cols)) return false;
  }
  return true;
}

}  // namespace

Status HashJoinOperator::ExtractKeys(const RowBatch&, const RowBatch&) {
  keys_extracted_ = true;
  if (plan_.join_condition == nullptr) {
    use_hash_ = false;  // cross join
    return Status::OK();
  }
  const auto left_cols = plan_.children[0]->OutputColumns();
  const auto right_cols = plan_.children[1]->OutputColumns();
  std::vector<ExprPtr> residual_conjuncts;
  for (auto& conjunct : SplitConjuncts(*plan_.join_condition)) {
    if (conjunct->kind == Expr::Kind::kBinary && conjunct->op == "=") {
      Expr& l = *conjunct->args[0];
      Expr& r = *conjunct->args[1];
      if (AllRefsIn(l, left_cols) && AllRefsIn(r, right_cols)) {
        left_keys_.push_back(l.Clone());
        right_keys_.push_back(r.Clone());
        continue;
      }
      if (AllRefsIn(r, left_cols) && AllRefsIn(l, right_cols)) {
        left_keys_.push_back(r.Clone());
        right_keys_.push_back(l.Clone());
        continue;
      }
    }
    residual_conjuncts.push_back(std::move(conjunct));
  }
  residual_ = CombineConjuncts(std::move(residual_conjuncts));
  for (const auto& k : left_keys_) probe_keys_.push_back(k.get());
  use_hash_ = !left_keys_.empty();
  if (plan_.join_type == JoinClause::Type::kLeft &&
      (!use_hash_ || residual_ != nullptr)) {
    return Status::NotImplemented(
        "LEFT JOIN requires a pure equi-join condition");
  }
  return Status::OK();
}

Status HashJoinOperator::BuildSide() {
  while (true) {
    PIXELS_ASSIGN_OR_RETURN(SelBatch in, right_->Next());
    if (in.batch == nullptr) break;
    RowBatchPtr batch = in.Materialize();
    if (batch->num_rows() == 0) continue;
    if (right_names_.empty()) {
      for (size_t c = 0; c < batch->num_columns(); ++c) {
        right_names_.push_back(batch->name(c));
        right_types_.push_back(batch->column(c)->type());
      }
    }
    build_batches_.push_back(batch);
  }
  if (right_names_.empty()) {
    // Empty build side: take declared columns for null padding.
    right_names_ = plan_.children[1]->OutputColumns();
    right_types_.assign(right_names_.size(), TypeId::kInt64);
  }
  if (!use_hash_) return Status::OK();

  // Phase 1 (batch-parallel): key columns + hashes per batch, computed
  // by HashKeyColumns' typed flat loops.
  struct BatchKeys {
    std::vector<ColumnVectorPtr> key_cols;
    std::vector<uint64_t> hashes;
    std::vector<uint8_t> any_null;
  };
  std::vector<BatchKeys> keys(build_batches_.size());
  size_t total_rows = 0;
  for (const auto& b : build_batches_) total_rows += b->num_rows();
  auto compute_keys = [&](size_t bi) -> Status {
    const RowBatch& batch = *build_batches_[bi];
    BatchKeys& bk = keys[bi];
    for (const auto& k : right_keys_) {
      PIXELS_ASSIGN_OR_RETURN(ColumnVectorPtr col, EvaluateExpr(*k, batch));
      bk.key_cols.push_back(std::move(col));
    }
    bk.hashes = HashKeyColumns(bk.key_cols, batch.num_rows(), &bk.any_null);
    return Status::OK();
  };

  // Phase 2 (partition-parallel): inserts in batch-then-row order, so
  // table contents — including duplicate-key chains — are deterministic.
  // Pre-sized from the exact build row count (distinct keys <= rows):
  // no rehash storm regardless of key distribution.
  const int par = ctx_->EffectiveParallelism();
  const size_t num_parts = par > 1 ? static_cast<size_t>(par) : 1;
  tables_.reserve(num_parts);
  for (size_t p = 0; p < num_parts; ++p) {
    tables_.emplace_back(right_keys_.size(), kHashTableLoadFactor);
    tables_[p].Reserve(total_rows / num_parts + 16);
  }
  auto build_partition = [&](size_t p) -> Status {
    for (size_t bi = 0; bi < build_batches_.size(); ++bi) {
      const BatchKeys& bk = keys[bi];
      for (uint32_t r = 0; r < bk.hashes.size(); ++r) {
        if (bk.any_null[r]) continue;  // null keys never join
        const uint64_t h = bk.hashes[r];
        if (h % num_parts != p) continue;
        tables_[p].Insert(h, bk.key_cols, r,
                          (static_cast<uint64_t>(bi) << 32) | r);
      }
    }
    return Status::OK();
  };

  if (par <= 1) {
    for (size_t bi = 0; bi < build_batches_.size(); ++bi) {
      PIXELS_RETURN_NOT_OK(compute_keys(bi));
    }
    return build_partition(0);
  }
  ThreadPool* pool = ctx_->EffectivePool();
  PIXELS_RETURN_NOT_OK(pool->ParallelFor(
      0, build_batches_.size(), /*grain=*/1,
      [&](size_t bi) { return compute_keys(bi); }, par));
  return pool->ParallelFor(
      0, num_parts, /*grain=*/1,
      [&](size_t p) { return build_partition(p); }, par);
}

Status HashJoinOperator::PublishRuntimeFilter() {
  if (!ctx_->runtime_filters || plan_.rf_id < 0 ||
      !use_hash_ || plan_.join_type != JoinClause::Type::kInner) {
    return Status::OK();
  }
  // Locate the build key the planner annotated. Not finding it (e.g. the
  // key is an expression) just means nothing is published: the probe
  // scan then reads everything, which is always correct.
  const Expr* key = nullptr;
  for (const auto& rk : right_keys_) {
    if (rk->kind == Expr::Kind::kColumnRef &&
        rk->QualifiedName() == plan_.rf_build_column) {
      key = rk.get();
      break;
    }
  }
  if (key == nullptr) return Status::OK();

  std::vector<ColumnVectorPtr> key_cols;
  uint64_t key_count = 0;
  for (const auto& batch : build_batches_) {
    PIXELS_ASSIGN_OR_RETURN(ColumnVectorPtr col, EvaluateExpr(*key, *batch));
    key_count += col->size() - col->NullCount();
    key_cols.push_back(std::move(col));
  }
  auto rf = std::make_shared<RuntimeFilter>(
      static_cast<size_t>(key_count), kRfBloomBitsPerKey);
  rf->key_count = key_count;
  for (const auto& col : key_cols) {
    const std::vector<uint64_t> hashes = RfHashColumn(*col);
    for (size_t i = 0; i < col->size(); ++i) {
      if (col->IsNull(i)) continue;  // null keys never inner-join
      rf->bloom.Add(hashes[i]);
      const Value v = col->GetValue(i);
      if (!rf->has_range) {
        rf->min_key = v;
        rf->max_key = v;
        rf->has_range = true;
      } else {
        if (v.Compare(rf->min_key) < 0) rf->min_key = v;
        if (v.Compare(rf->max_key) > 0) rf->max_key = v;
      }
    }
  }
  ctx_->rf_hub.Publish(plan_.rf_id, std::move(rf));
  return Status::OK();
}

Status HashJoinOperator::Open() {
  PIXELS_RETURN_NOT_OK(left_->Open());
  PIXELS_RETURN_NOT_OK(right_->Open());
  PIXELS_RETURN_NOT_OK(ExtractKeys(RowBatch{}, RowBatch{}));
  PIXELS_RETURN_NOT_OK(BuildSide());
  // Published before the first probe-side morsel decodes: probe scans
  // only poll the hub at their first Next(), which is after Open().
  return PublishRuntimeFilter();
}

Result<RowBatchPtr> HashJoinOperator::CombineAndFilter(
    const RowBatchPtr& probe, const std::vector<uint32_t>& probe_sel,
    const std::vector<ColumnVectorPtr>& build_out) {
  RowBatchPtr left_part = probe->Gather(probe_sel);
  auto combined = std::make_shared<RowBatch>();
  for (size_t c = 0; c < left_part->num_columns(); ++c) {
    combined->AddColumn(left_part->name(c), left_part->column(c));
  }
  for (size_t c = 0; c < build_out.size(); ++c) {
    combined->AddColumn(right_names_[c], build_out[c]);
  }

  // Residual condition (non-equi conjuncts, or the whole condition for
  // nested-loop inner joins).
  const Expr* filter = nullptr;
  if (residual_ != nullptr) {
    filter = residual_.get();
  } else if (!use_hash_ && plan_.join_condition != nullptr) {
    filter = plan_.join_condition.get();
  }
  if (filter != nullptr && combined->num_rows() > 0) {
    PIXELS_ASSIGN_OR_RETURN(ColumnVectorPtr mask,
                            EvaluateExpr(*filter, *combined));
    const SelectionVector sel = TruthSelect(*mask, nullptr);
    if (sel.empty()) return RowBatchPtr(nullptr);
    combined = combined->Gather(sel);
  }
  if (combined->num_rows() == 0) return RowBatchPtr(nullptr);
  return combined;
}

Result<SelBatch> HashJoinOperator::Next() {
  std::vector<uint64_t> matches;
  while (true) {
    PIXELS_ASSIGN_OR_RETURN(SelBatch in, left_->Next());
    if (in.batch == nullptr) return SelBatch{};
    if (in.num_selected() == 0) continue;

    std::vector<ColumnVectorPtr> key_cols;
    std::vector<uint8_t> any_null;
    std::vector<uint64_t> hashes;
    if (use_hash_) {
      PIXELS_ASSIGN_OR_RETURN(in, in.Evaluate(probe_keys_, &key_cols));
      hashes = HashKeyColumns(key_cols, in.batch->num_rows(), &any_null);
    }
    const RowBatchPtr& probe = in.batch;
    const SelectionVector* sel = in.sel.get();

    std::vector<uint32_t> probe_sel;
    std::vector<ColumnVectorPtr> build_out;
    for (TypeId t : right_types_) build_out.push_back(MakeVector(t));
    auto emit_pair = [&](uint32_t probe_row, const uint64_t* payload) {
      probe_sel.push_back(probe_row);
      for (size_t c = 0; c < build_out.size(); ++c) {
        if (payload == nullptr) {
          build_out[c]->AppendNull();
        } else {
          build_out[c]->AppendFrom(
              *build_batches_[*payload >> 32]->column(c),
              static_cast<uint32_t>(*payload));
        }
      }
    };
    auto probe_row = [&](uint32_t r) {
      if (!use_hash_) {
        // Nested loop: every build row; CombineAndFilter then applies the
        // whole condition as the residual.
        for (size_t bi = 0; bi < build_batches_.size(); ++bi) {
          const uint32_t rows =
              static_cast<uint32_t>(build_batches_[bi]->num_rows());
          for (uint32_t br = 0; br < rows; ++br) {
            const uint64_t m = (static_cast<uint64_t>(bi) << 32) | br;
            emit_pair(r, &m);
          }
        }
        return;
      }
      bool matched = false;
      if (!any_null[r]) {
        const uint64_t h = hashes[r];
        matches.clear();
        tables_[h % tables_.size()].Probe(h, key_cols, r, &matches);
        for (const uint64_t m : matches) emit_pair(r, &m);
        matched = !matches.empty();
      }
      if (!matched && plan_.join_type == JoinClause::Type::kLeft) {
        emit_pair(r, nullptr);
      }
    };
    if (sel != nullptr) {
      for (uint32_t r : *sel) probe_row(r);
    } else {
      const uint32_t n = static_cast<uint32_t>(probe->num_rows());
      for (uint32_t r = 0; r < n; ++r) probe_row(r);
    }

    if (probe_sel.empty()) continue;
    PIXELS_ASSIGN_OR_RETURN(RowBatchPtr out,
                            CombineAndFilter(probe, probe_sel, build_out));
    if (out == nullptr) continue;  // residual filtered everything out
    return SelBatch{std::move(out)};
  }
}

void HashJoinOperator::Close() {
  left_->Close();
  right_->Close();
  build_batches_.clear();
  tables_.clear();
}

}  // namespace pixels
