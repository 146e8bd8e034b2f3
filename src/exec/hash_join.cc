#include "exec/hash_join.h"

#include <algorithm>
#include <limits>

#include "exec/expression.h"
#include "exec/kernels.h"
#include "plan/optimizer.h"

namespace pixels {

namespace {

/// Membership of `ref` (qualified name) in `cols`: exact, or when
/// `relaxed`, an unambiguous basename match.
bool RefIn(const std::string& ref, const std::vector<std::string>& cols,
           bool relaxed) {
  for (const auto& c : cols) {
    if (c == ref) return true;
  }
  if (!relaxed) return false;
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

bool AllRefsIn(const Expr& e, const std::vector<std::string>& cols,
               bool relaxed) {
  std::vector<std::string> refs;
  CollectColumnRefs(e, &refs);
  if (refs.empty()) return false;
  for (const auto& r : refs) {
    if (!RefIn(r, cols, relaxed)) return false;
  }
  return true;
}

/// Copies `src` into rows [at, at + src.size()) of `dst`, converting
/// numerics to dst's type as ColumnVector::AppendFrom does. Null rows
/// keep dst's zeroed payload.
Status CopyRows(const ColumnVector& src, ColumnVector* dst, size_t at) {
  const size_t n = src.size();
  const uint8_t* valid = src.valid_data();
  uint8_t* dst_valid = dst->mutable_valid_data() + at;
  for (size_t i = 0; i < n; ++i) dst_valid[i] = valid[i] != 0;
  const PayloadClass from = PayloadClassOf(src.type());
  switch (PayloadClassOf(dst->type())) {
    case PayloadClass::kString: {
      if (from != PayloadClass::kString) break;
      const std::string* s = src.strings_data();
      std::string* d = dst->mutable_strings_data() + at;
      for (size_t i = 0; i < n; ++i) {
        if (valid[i]) d[i] = s[i];
      }
      return Status::OK();
    }
    case PayloadClass::kDouble: {
      double* d = dst->mutable_doubles_data() + at;
      if (from == PayloadClass::kDouble) {
        const double* s = src.doubles_data();
        for (size_t i = 0; i < n; ++i) d[i] = valid[i] ? s[i] : 0.0;
      } else if (from == PayloadClass::kInt) {
        const int64_t* s = src.ints_data();
        for (size_t i = 0; i < n; ++i) {
          d[i] = valid[i] ? static_cast<double>(s[i]) : 0.0;
        }
      } else {
        break;
      }
      return Status::OK();
    }
    case PayloadClass::kInt: {
      int64_t* d = dst->mutable_ints_data() + at;
      if (from == PayloadClass::kInt) {
        const int64_t* s = src.ints_data();
        for (size_t i = 0; i < n; ++i) d[i] = valid[i] ? s[i] : 0;
      } else if (from == PayloadClass::kDouble) {
        const double* s = src.doubles_data();
        for (size_t i = 0; i < n; ++i) {
          d[i] = valid[i] ? static_cast<int64_t>(s[i]) : 0;
        }
      } else {
        break;
      }
      return Status::OK();
    }
  }
  return Status::TypeError("build column mixes string and numeric batches");
}

/// Concatenates the build batches into one vector per column, typed like
/// the first batch's column, plus a trailing all-null row. Releases each
/// batch once it is copied.
Result<std::vector<ColumnVectorPtr>> ConcatBuild(
    std::vector<RowBatchPtr>* batches, const std::vector<TypeId>& types,
    size_t rows) {
  std::vector<ColumnVectorPtr> cols;
  for (TypeId t : types) {
    cols.push_back(MakeVector(t));
    cols.back()->Resize(rows + 1);
  }
  size_t at = 0;
  for (RowBatchPtr& batch : *batches) {
    for (size_t c = 0; c < cols.size(); ++c) {
      PIXELS_RETURN_NOT_OK(CopyRows(*batch->column(c), cols[c].get(), at));
    }
    at += batch->num_rows();
    batch.reset();
  }
  batches->clear();
  for (auto& col : cols) col->RecountNulls();
  return cols;
}

/// Indices of `names` that appear in `keep` (every index when empty).
std::vector<size_t> KeptIndices(const std::vector<std::string>& names,
                                const std::vector<std::string>& keep) {
  std::vector<size_t> out;
  for (size_t i = 0; i < names.size(); ++i) {
    if (keep.empty() ||
        std::find(keep.begin(), keep.end(), names[i]) != keep.end()) {
      out.push_back(i);
    }
  }
  return out;
}

}  // namespace

Status HashJoinOperator::ExtractKeys() {
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
      // Exact names first: in a self-join (t a JOIN t b) every basename
      // resolves on both sides, so only exact names orient a.x = b.y.
      bool oriented = false;
      for (bool relaxed : {false, true}) {
        if (AllRefsIn(l, left_cols, relaxed) &&
            AllRefsIn(r, right_cols, relaxed)) {
          left_keys_.push_back(l.Clone());
          right_keys_.push_back(r.Clone());
          oriented = true;
        } else if (AllRefsIn(r, left_cols, relaxed) &&
                   AllRefsIn(l, right_cols, relaxed)) {
          left_keys_.push_back(r.Clone());
          right_keys_.push_back(l.Clone());
          oriented = true;
        }
        if (oriented) break;
      }
      if (oriented) continue;
    }
    residual_conjuncts.push_back(std::move(conjunct));
  }
  ExprPtr residual = CombineConjuncts(std::move(residual_conjuncts));
  for (const auto& k : left_keys_) probe_keys_.push_back(k.get());
  use_hash_ = !left_keys_.empty();
  if (plan_.join_type == JoinClause::Type::kLeft &&
      (!use_hash_ || residual != nullptr)) {
    return Status::NotImplemented(
        "LEFT JOIN requires a pure equi-join condition");
  }
  filter_ = use_hash_ ? std::move(residual) : plan_.join_condition->Clone();
  return Status::OK();
}

Status HashJoinOperator::BuildSide() {
  std::vector<RowBatchPtr> batches;
  std::vector<TypeId> types;
  size_t total_rows = 0;
  while (true) {
    PIXELS_ASSIGN_OR_RETURN(SelBatch in, right_->Next());
    if (in.batch == nullptr) break;
    RowBatchPtr batch = in.Materialize();
    if (batch->num_rows() == 0) continue;
    if (right_names_.empty()) {
      for (size_t c = 0; c < batch->num_columns(); ++c) {
        right_names_.push_back(batch->name(c));
        types.push_back(batch->column(c)->type());
      }
    }
    total_rows += batch->num_rows();
    batches.push_back(std::move(batch));
  }
  if (right_names_.empty()) {
    // Empty build side: the padding columns take the build subtree's
    // bound types.
    PIXELS_ASSIGN_OR_RETURN(PlanSchema schema,
                            OutputSchema(*plan_.children[1], ctx_->catalog));
    right_names_ = std::move(schema.names);
    types = std::move(schema.types);
  }
  if (total_rows >= std::numeric_limits<uint32_t>::max()) {
    return Status::NotImplemented("join build side exceeds 2^32 - 1 rows");
  }
  build_rows_ = static_cast<uint32_t>(total_rows);
  if (use_hash_) {
    // Phase 1 (batch-parallel): key columns + hashes per batch, computed
    // by HashKeyColumns' typed flat loops. Keys evaluate over the batches
    // as produced, before the concatenation coerces column types.
    struct BatchHashes {
      std::vector<uint64_t> hashes;
      std::vector<uint8_t> any_null;
    };
    std::vector<BatchHashes> hashes(batches.size());
    std::vector<uint32_t> first_row(batches.size());
    for (size_t bi = 1; bi < batches.size(); ++bi) {
      first_row[bi] = first_row[bi - 1] +
                      static_cast<uint32_t>(batches[bi - 1]->num_rows());
    }
    build_keys_.resize(batches.size());
    auto compute_keys = [&](size_t bi) -> Status {
      const RowBatch& batch = *batches[bi];
      for (const auto& k : right_keys_) {
        PIXELS_ASSIGN_OR_RETURN(ColumnVectorPtr col, EvaluateExpr(*k, batch));
        build_keys_[bi].push_back(std::move(col));
      }
      hashes[bi].hashes = HashKeyColumns(build_keys_[bi], batch.num_rows(),
                                         &hashes[bi].any_null);
      return Status::OK();
    };

    // Phase 2 (partition-parallel): inserts in build row order, so table
    // contents — including duplicate-key chains — are deterministic.
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
      for (size_t bi = 0; bi < batches.size(); ++bi) {
        const BatchHashes& bh = hashes[bi];
        for (uint32_t r = 0; r < bh.hashes.size(); ++r) {
          if (bh.any_null[r]) continue;  // null keys never join
          const uint64_t h = bh.hashes[r];
          if (h % num_parts != p) continue;
          tables_[p].Insert(h, build_keys_[bi], r, first_row[bi] + r);
        }
      }
      return Status::OK();
    };

    if (par <= 1) {
      for (size_t bi = 0; bi < batches.size(); ++bi) {
        PIXELS_RETURN_NOT_OK(compute_keys(bi));
      }
      PIXELS_RETURN_NOT_OK(build_partition(0));
    } else {
      ThreadPool* pool = ctx_->EffectivePool();
      PIXELS_RETURN_NOT_OK(pool->ParallelFor(
          0, batches.size(), /*grain=*/1,
          [&](size_t bi) { return compute_keys(bi); }, par));
      PIXELS_RETURN_NOT_OK(pool->ParallelFor(
          0, num_parts, /*grain=*/1,
          [&](size_t p) { return build_partition(p); }, par));
    }
  }
  PIXELS_ASSIGN_OR_RETURN(build_cols_,
                          ConcatBuild(&batches, types, total_rows));
  return Status::OK();
}

Status HashJoinOperator::PublishRuntimeFilter() {
  if (!ctx_->runtime_filters || plan_.rf_id < 0 ||
      !use_hash_ || plan_.join_type != JoinClause::Type::kInner) {
    return Status::OK();
  }
  // Locate the build key the planner annotated. Not finding it (e.g. the
  // key is an expression) just means nothing is published: the probe
  // scan then reads everything, which is always correct.
  size_t key = right_keys_.size();
  for (size_t k = 0; k < right_keys_.size(); ++k) {
    if (right_keys_[k]->kind == Expr::Kind::kColumnRef &&
        right_keys_[k]->QualifiedName() == plan_.rf_build_column) {
      key = k;
      break;
    }
  }
  if (key == right_keys_.size()) return Status::OK();

  // The key columns BuildSide evaluated, batch by batch.
  uint64_t key_count = 0;
  for (const auto& keys : build_keys_) {
    key_count += keys[key]->size() - keys[key]->NullCount();
  }
  auto rf = std::make_shared<RuntimeFilter>(
      static_cast<size_t>(key_count), kRfBloomBitsPerKey);
  rf->key_count = key_count;
  for (const auto& keys : build_keys_) {
    const ColumnVector& col = *keys[key];
    const std::vector<uint64_t> hashes = RfHashColumn(col);
    for (size_t i = 0; i < col.size(); ++i) {
      if (col.IsNull(i)) continue;  // null keys never inner-join
      rf->bloom.Add(hashes[i]);
      const Value v = col.GetValue(i);
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
  PIXELS_RETURN_NOT_OK(ExtractKeys());
  PIXELS_RETURN_NOT_OK(BuildSide());
  // Published before the first probe-side morsel decodes: probe scans
  // only poll the hub at their first Next(), which is after Open().
  Status published = PublishRuntimeFilter();
  build_keys_.clear();
  return published;
}

void HashJoinOperator::ResolveColumns(const RowBatch& probe) {
  std::vector<std::string> probe_names;
  for (size_t c = 0; c < probe.num_columns(); ++c) {
    probe_names.push_back(probe.name(c));
  }
  probe_out_ = KeptIndices(probe_names, plan_.columns);
  build_out_ = KeptIndices(right_names_, plan_.columns);
  if (filter_ != nullptr) {
    std::vector<std::string> refs;
    CollectColumnRefs(*filter_, &refs);
    std::vector<std::string> all = probe_names;
    all.insert(all.end(), right_names_.begin(), right_names_.end());
    const std::vector<bool> read = ColumnsRead(refs, all);
    for (size_t i = 0; i < all.size(); ++i) {
      if (!read[i]) continue;
      if (i < probe_names.size()) {
        probe_filter_.push_back(i);
      } else {
        build_filter_.push_back(i - probe_names.size());
      }
    }
    // A condition reading no column still needs the pair count.
    if (probe_filter_.empty() && build_filter_.empty()) {
      probe_filter_.push_back(0);
    }
  }
  columns_resolved_ = true;
}

RowBatchPtr HashJoinOperator::GatherColumns(
    const RowBatch& probe, const std::vector<size_t>& probe_cols,
    const std::vector<size_t>& build_cols) const {
  auto out = std::make_shared<RowBatch>();
  for (size_t c : probe_cols) {
    out->AddColumn(probe.name(c), probe.column(c)->Gather(matches_.probe));
  }
  for (size_t c : build_cols) {
    out->AddColumn(right_names_[c], build_cols_[c]->Gather(matches_.build));
  }
  return out;
}

Result<RowBatchPtr> HashJoinOperator::Gather(const RowBatch& probe) {
  if (filter_ != nullptr) {
    const RowBatchPtr cond =
        GatherColumns(probe, probe_filter_, build_filter_);
    PIXELS_ASSIGN_OR_RETURN(ColumnVectorPtr mask,
                            EvaluateExpr(*filter_, *cond));
    const SelectionVector sel = TruthSelect(*mask, nullptr);
    if (sel.empty()) return RowBatchPtr(nullptr);
    for (size_t i = 0; i < sel.size(); ++i) {
      matches_.probe[i] = matches_.probe[sel[i]];
      matches_.build[i] = matches_.build[sel[i]];
    }
    matches_.probe.resize(sel.size());
    matches_.build.resize(sel.size());
  }
  return GatherColumns(probe, probe_out_, build_out_);
}

Result<SelBatch> HashJoinOperator::Next() {
  const uint32_t pad_row = plan_.join_type == JoinClause::Type::kLeft
                               ? build_rows_
                               : JoinTable::kNoPad;
  while (true) {
    PIXELS_ASSIGN_OR_RETURN(SelBatch in, left_->Next());
    if (in.batch == nullptr) return SelBatch{};
    if (in.num_selected() == 0) continue;
    if (!columns_resolved_) ResolveColumns(*in.batch);

    // Match phase: (probe row, build row) pairs in probe row order, then
    // build insertion order.
    matches_.Clear();
    if (use_hash_) {
      std::vector<ColumnVectorPtr> key_cols;
      PIXELS_ASSIGN_OR_RETURN(in, in.Evaluate(probe_keys_, &key_cols));
      std::vector<uint8_t> any_null;
      const std::vector<uint64_t> hashes =
          HashKeyColumns(key_cols, in.batch->num_rows(), &any_null);
      JoinTable::ProbeBatch(tables_, hashes, any_null, key_cols, in.sel.get(),
                            in.batch->num_rows(), pad_row, &matches_);
    } else {
      // Nested loop: every build row; the gather phase then applies the
      // whole condition.
      auto emit_all = [&](uint32_t r) {
        for (uint32_t b = 0; b < build_rows_; ++b) matches_.Add(r, b);
      };
      if (in.sel != nullptr) {
        for (uint32_t r : *in.sel) emit_all(r);
      } else {
        const uint32_t n = static_cast<uint32_t>(in.batch->num_rows());
        for (uint32_t r = 0; r < n; ++r) emit_all(r);
      }
    }
    if (matches_.size() == 0) continue;

    // Gather phase.
    PIXELS_ASSIGN_OR_RETURN(RowBatchPtr out, Gather(*in.batch));
    if (out == nullptr) continue;  // residual filtered everything out
    return SelBatch{std::move(out)};
  }
}

void HashJoinOperator::Close() {
  left_->Close();
  right_->Close();
  build_cols_.clear();
  tables_.clear();
}

}  // namespace pixels
