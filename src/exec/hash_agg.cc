#include "exec/hash_agg.h"

#include <algorithm>

#include "exec/expression.h"
#include "exec/kernels.h"
#include "exec/operators.h"

namespace pixels {

namespace {

/// Keeps the rows of (rows, gids) whose pair (group id, x) is new to
/// `seen`; null x never counts.
void KeepNewPairs(GroupTable* seen, const ColumnVectorPtr& x,
                  std::vector<uint32_t>* rows, std::vector<uint32_t>* gids) {
  auto gid_col = MakeVector(TypeId::kInt64);
  gid_col->Resize(x->size());
  for (size_t i = 0; i < rows->size(); ++i) {
    gid_col->mutable_valid_data()[(*rows)[i]] = 1;
    gid_col->mutable_ints_data()[(*rows)[i]] = (*gids)[i];
  }
  gid_col->RecountNulls();
  const std::vector<ColumnVectorPtr> cols = {gid_col, x};
  const std::vector<uint64_t> hashes = HashKeyColumns(cols, x->size(), nullptr);
  size_t k = 0;
  for (size_t i = 0; i < rows->size(); ++i) {
    const uint32_t r = (*rows)[i];
    if (x->IsNull(r)) continue;
    const size_t before = seen->num_entries();
    seen->FindOrInsert(hashes[r], cols, r);
    if (seen->num_entries() == before) continue;
    (*rows)[k] = r;
    (*gids)[k] = (*gids)[i];
    ++k;
  }
  rows->resize(k);
  gids->resize(k);
}

Status ExpectClass(const ColumnVector* col, PayloadClass want,
                   const std::string& agg) {
  if (col != nullptr && PayloadClassOf(col->type()) == want) return Status::OK();
  return Status::Internal("aggregate " + agg + ": input is not of its bound type");
}

}  // namespace

Status HashAggOperator::PrepareTypedBatch(TypedBatch* tb) const {
  std::vector<ColumnVectorPtr> cols;
  PIXELS_ASSIGN_OR_RETURN(tb->in, tb->in.Evaluate(inputs_, &cols));
  const size_t num_keys = plan_.group_exprs.size();
  const size_t num_aggs = plan_.agg_exprs.size();
  tb->key_cols.assign(cols.begin(), cols.begin() + num_keys);
  tb->arg_cols.assign(cols.begin() + num_keys, cols.begin() + num_keys + num_aggs);
  tb->cnt_cols.assign(cols.begin() + num_keys + num_aggs, cols.end());
  tb->hashes = HashKeyColumns(tb->key_cols, tb->in.batch->num_rows(), nullptr);
  return Status::OK();
}

Status HashAggOperator::ApplyTypedBatch(TypedPart* part, const TypedBatch& tb,
                                        size_t p, size_t num_parts) const {
  // Pass 1: group ids for the rows this partition owns, in selection
  // order. FindOrInsert only compares keys on hash collisions.
  std::vector<uint32_t> rows;
  std::vector<uint32_t> gids;
  auto take = [&](uint32_t r) {
    if (num_parts > 1 && tb.hashes[r] % num_parts != p) return;
    rows.push_back(r);
    gids.push_back(part->table.FindOrInsert(tb.hashes[r], tb.key_cols, r));
  };
  if (tb.in.sel != nullptr) {
    rows.reserve(tb.in.sel->size());
    gids.reserve(tb.in.sel->size());
    for (uint32_t r : *tb.in.sel) take(r);
  } else {
    const uint32_t n = static_cast<uint32_t>(tb.in.batch->num_rows());
    rows.reserve(n);
    gids.reserve(n);
    for (uint32_t r = 0; r < n; ++r) take(r);
  }
  if (rows.empty()) return Status::OK();
  const size_t ne = part->table.num_entries();

  // Pass 2: one typed loop per aggregate over this partition's rows.
  std::vector<uint32_t> distinct_rows, distinct_gids;
  for (size_t a = 0; a < plan_.agg_exprs.size(); ++a) {
    const Expr& call = *plan_.agg_exprs[a];
    const ColumnVector* col = tb.arg_cols[a].get();
    const std::vector<uint32_t>* rs = &rows;
    const std::vector<uint32_t>* gs = &gids;
    if (call.distinct && col != nullptr) {
      distinct_rows = rows;
      distinct_gids = gids;
      KeepNewPairs(&part->distinct[a], tb.arg_cols[a], &distinct_rows,
                   &distinct_gids);
      rs = &distinct_rows;
      gs = &distinct_gids;
    }
    const size_t m = rs->size();
    const uint32_t* r = rs->data();
    const uint32_t* g = gs->data();
    const uint8_t* ok = col != nullptr ? col->valid_data() : nullptr;
    switch (kinds_[a]) {
      case AggKind::kCount: {
        auto& c = part->counts[a];
        c.resize(ne);
        if (ok == nullptr) {  // COUNT(*)
          for (size_t i = 0; i < m; ++i) ++c[g[i]];
        } else {
          for (size_t i = 0; i < m; ++i) c[g[i]] += ok[r[i]];
        }
        break;
      }
      case AggKind::kAddCounts: {
        PIXELS_RETURN_NOT_OK(ExpectClass(col, PayloadClass::kInt, plan_.agg_names[a]));
        auto& c = part->counts[a];
        c.resize(ne);
        const int64_t* v = col->ints_data();
        for (size_t i = 0; i < m; ++i) c[g[i]] += ok[r[i]] ? v[r[i]] : 0;
        break;
      }
      case AggKind::kInt: {
        // SUM/AVG over strings add zeros (Value::String's int payload).
        const bool zero = col != nullptr && col->type() == TypeId::kString;
        if (!zero) {
          PIXELS_RETURN_NOT_OK(ExpectClass(col, PayloadClass::kInt, plan_.agg_names[a]));
        }
        auto& ns = part->nums[a];
        ns.resize(ne);
        const int64_t* v = col->ints_data();
        const bool is_bool = col->type() == TypeId::kBool;
        for (size_t i = 0; i < m; ++i) {
          if (!ok[r[i]]) continue;
          NumAggState& st = ns[g[i]];
          const int64_t x = zero ? 0 : is_bool ? (v[r[i]] != 0) : v[r[i]];
          st.sum_i += x;
          st.sum_d += static_cast<double>(x);
          if (st.count++ == 0) {
            st.min_i = x;
            st.max_i = x;
          } else {
            if (x < st.min_i) st.min_i = x;
            if (x > st.max_i) st.max_i = x;
          }
        }
        break;
      }
      case AggKind::kDouble: {
        PIXELS_RETURN_NOT_OK(ExpectClass(col, PayloadClass::kDouble, plan_.agg_names[a]));
        auto& ns = part->nums[a];
        ns.resize(ne);
        const double* v = col->doubles_data();
        for (size_t i = 0; i < m; ++i) {
          if (!ok[r[i]]) continue;
          NumAggState& st = ns[g[i]];
          const double x = v[r[i]];
          st.sum_d += x;
          if (st.count++ == 0) {
            st.min_d = x;
            st.max_d = x;
          } else {
            if (x < st.min_d) st.min_d = x;
            if (x > st.max_d) st.max_d = x;
          }
        }
        break;
      }
      case AggKind::kString: {
        PIXELS_RETURN_NOT_OK(ExpectClass(col, PayloadClass::kString, plan_.agg_names[a]));
        auto& ss = part->strs[a];
        ss.resize(ne);
        const std::string* v = col->strings_data();
        for (size_t i = 0; i < m; ++i) {
          if (!ok[r[i]]) continue;
          StrMinMax& st = ss[g[i]];
          const std::string& x = v[r[i]];
          if (!st.has) {
            st.min = x;
            st.max = x;
            st.has = true;
          } else {
            if (x < st.min) st.min = x;
            if (x > st.max) st.max = x;
          }
        }
        break;
      }
      case AggKind::kMergeAvg: {
        const ColumnVector* cnt = tb.cnt_cols[a].get();
        PIXELS_RETURN_NOT_OK(ExpectClass(col, PayloadClass::kDouble, plan_.agg_names[a]));
        PIXELS_RETURN_NOT_OK(ExpectClass(cnt, PayloadClass::kInt, plan_.agg_names[a]));
        auto& ns = part->nums[a];
        ns.resize(ne);
        const double* s = col->doubles_data();
        const int64_t* c = cnt->ints_data();
        const uint8_t* cok = cnt->valid_data();
        for (size_t i = 0; i < m; ++i) {
          NumAggState& st = ns[g[i]];
          if (ok[r[i]]) st.sum_d += s[r[i]];
          if (cok[r[i]]) st.count += c[r[i]];
        }
        break;
      }
    }
  }
  return Status::OK();
}

Status HashAggOperator::Consume(int par) {
  const size_t num_keys = plan_.group_exprs.size();
  const size_t num_aggs = plan_.agg_exprs.size();
  auto make_part = [&]() {
    TypedPart part{GroupTable(num_keys, kHashTableLoadFactor), {}, {}, {}, {}};
    part.counts.resize(num_aggs);
    part.nums.resize(num_aggs);
    part.strs.resize(num_aggs);
    part.distinct.assign(num_aggs, GroupTable(2, kHashTableLoadFactor));
    return part;
  };

  if (par <= 1) {
    // Streaming: one batch resident at a time.
    typed_parts_.push_back(make_part());
    while (true) {
      TypedBatch tb;
      PIXELS_ASSIGN_OR_RETURN(tb.in, child_->Next());
      if (tb.in.batch == nullptr) break;
      if (tb.in.num_selected() == 0) continue;
      PIXELS_RETURN_NOT_OK(PrepareTypedBatch(&tb));
      PIXELS_RETURN_NOT_OK(ApplyTypedBatch(&typed_parts_[0], tb, 0, 1));
    }
    return Status::OK();
  }

  // Parallel: collect, prepare batch-parallel, then build each hash
  // partition in batch-then-row order (deterministic contents and order
  // regardless of thread scheduling).
  std::vector<TypedBatch> inputs;
  size_t total_rows = 0;
  while (true) {
    TypedBatch tb;
    PIXELS_ASSIGN_OR_RETURN(tb.in, child_->Next());
    if (tb.in.batch == nullptr) break;
    if (tb.in.num_selected() == 0) continue;
    total_rows += tb.in.num_selected();
    inputs.push_back(std::move(tb));
  }
  ThreadPool* pool = ctx_->EffectivePool();
  PIXELS_RETURN_NOT_OK(pool->ParallelFor(
      0, inputs.size(), /*grain=*/1,
      [&](size_t bi) { return PrepareTypedBatch(&inputs[bi]); }, par));

  const size_t num_parts = static_cast<size_t>(par);
  typed_parts_.reserve(num_parts);
  for (size_t p = 0; p < num_parts; ++p) {
    typed_parts_.push_back(make_part());
    // Pre-size from the exact input row count: entries per partition are
    // bounded by rows / P in expectation (hash spreads distinct keys),
    // so mid-build rehashes only happen under heavy hash skew.
    typed_parts_[p].table.Reserve(total_rows / num_parts + 16);
  }
  PIXELS_RETURN_NOT_OK(pool->ParallelFor(
      0, num_parts, /*grain=*/1,
      [&](size_t p) -> Status {
        for (const auto& tb : inputs) {
          PIXELS_RETURN_NOT_OK(
              ApplyTypedBatch(&typed_parts_[p], tb, p, num_parts));
        }
        return Status::OK();
      },
      par));
  return Status::OK();
}

Status HashAggOperator::Open() {
  PIXELS_RETURN_NOT_OK(child_->Open());
  const bool merge = plan_.merge_partials;
  auto ref = [&](const std::string& name) {
    merge_refs_.push_back(MakeColumnRef("", name));
    return merge_refs_.back().get();
  };
  inputs_.clear();
  for (const auto& g : plan_.group_exprs) {
    if (!g->type) return Status::Internal("unbound group key: " + g->ToString());
    inputs_.push_back(g.get());
  }
  std::vector<const Expr*> second;
  for (size_t a = 0; a < plan_.agg_exprs.size(); ++a) {
    const Expr& call = *plan_.agg_exprs[a];
    const std::string& name = plan_.agg_names[a];
    const bool star = call.args.empty() || call.args[0]->kind == Expr::Kind::kStar;
    if (!call.type || (!star && !call.args[0]->type)) {
      return Status::Internal("unbound aggregate: " + call.ToString());
    }
    const bool avg = call.name == "avg";
    // Merge mode reads the partial-state columns named after the call.
    if (merge) {
      inputs_.push_back(ref(avg ? name + "$sum" : name));
      second.push_back(avg ? ref(name + "$cnt") : nullptr);
    } else {
      inputs_.push_back(star ? nullptr : call.args[0].get());
      second.push_back(nullptr);
    }
    // The state follows the function and the bound type of what it
    // folds: the argument, or in merge mode the partial state (the
    // call's own type).
    const PayloadClass cls =
        PayloadClassOf(merge || star ? *call.type : *call.args[0]->type);
    if (call.name == "count") {
      kinds_.push_back(merge ? AggKind::kAddCounts : AggKind::kCount);
    } else if (merge && avg) {
      kinds_.push_back(AggKind::kMergeAvg);
    } else if (cls == PayloadClass::kDouble) {
      kinds_.push_back(AggKind::kDouble);
    } else if (cls == PayloadClass::kString && !avg && call.name != "sum") {
      kinds_.push_back(AggKind::kString);
    } else {
      kinds_.push_back(AggKind::kInt);
    }
  }
  inputs_.insert(inputs_.end(), second.begin(), second.end());
  // The merge mode's inputs are small: one partition, first-seen order.
  return Consume(merge ? 1 : ctx_->EffectiveParallelism());
}

Result<RowBatchPtr> HashAggOperator::TypedEmit() {
  size_t total = 0;
  for (const auto& part : typed_parts_) total += part.table.num_entries();
  if (total == 0 && plan_.group_exprs.empty()) {
    // Global aggregation over no rows: one group of empty states.
    typed_parts_[0].table.FindOrInsert(HashKeyColumns({}, 1, nullptr)[0], {}, 0);
    total = 1;
  }

  auto out = std::make_shared<RowBatch>();
  // Group key columns, reboxed once from each KeyStore (partitions in
  // order, entries in first-insertion order within each).
  for (size_t k = 0; k < plan_.group_names.size(); ++k) {
    auto col = MakeVector(PayloadType(*plan_.group_exprs[k]->type));
    col->Reserve(total);
    for (const auto& part : typed_parts_) {
      const KeyStore& keys = part.table.keys();
      for (size_t g = 0; g < part.table.num_entries(); ++g) {
        PIXELS_RETURN_NOT_OK(col->AppendValue(keys.GetValue(g, k)));
      }
    }
    out->AddColumn(plan_.group_names[k], std::move(col));
  }

  // Aggregate columns, written straight from the state arrays.
  for (size_t a = 0; a < plan_.agg_exprs.size(); ++a) {
    const Expr& call = *plan_.agg_exprs[a];
    const std::string& fn = call.name;
    const AggKind kind = kinds_[a];
    const bool partial_avg = plan_.partial && fn == "avg";
    // The NumAggState fields SUM, MIN and MAX emit.
    const bool sum = fn == "sum", min = fn == "min";
    const auto int_field = sum ? &NumAggState::sum_i
                               : (min ? &NumAggState::min_i : &NumAggState::max_i);
    const auto dbl_field = sum ? &NumAggState::sum_d
                               : (min ? &NumAggState::min_d : &NumAggState::max_d);
    auto col = MakeVector(partial_avg ? TypeId::kDouble : *call.type);
    auto cnt = MakeVector(TypeId::kInt64);  // a partial AVG's $cnt
    col->Resize(total);
    if (partial_avg) cnt->Resize(total);
    uint8_t* ok = col->mutable_valid_data();
    int64_t* iv = col->mutable_ints_data();
    double* dv = col->mutable_doubles_data();
    std::string* sv = col->mutable_strings_data();
    size_t at = 0;
    for (auto& part : typed_parts_) {
      const size_t ne = part.table.num_entries();
      switch (kind) {
        case AggKind::kCount:
        case AggKind::kAddCounts: {
          auto& c = part.counts[a];
          c.resize(ne);
          std::fill_n(ok + at, ne, uint8_t{1});
          std::copy(c.begin(), c.end(), iv + at);
          break;
        }
        case AggKind::kString: {
          auto& ss = part.strs[a];
          ss.resize(ne);
          for (size_t g = 0; g < ne; ++g) {
            ok[at + g] = ss[g].has;
            if (ss[g].has) sv[at + g] = std::move(min ? ss[g].min : ss[g].max);
          }
          break;
        }
        default: {
          auto& ns = part.nums[a];
          ns.resize(ne);
          for (size_t g = 0; g < ne; ++g) {
            const NumAggState& st = ns[g];
            const size_t i = at + g;
            ok[i] = st.count != 0;
            if (partial_avg) {
              cnt->mutable_valid_data()[i] = 1;
              cnt->mutable_ints_data()[i] = st.count;
              if (ok[i]) dv[i] = st.sum_d;
            } else if (!ok[i]) {
              continue;  // NULL: the zeroed payload stays
            } else if (fn == "avg") {
              dv[i] = st.sum_d / static_cast<double>(st.count);
            } else if (kind == AggKind::kInt) {
              iv[i] = st.*int_field;
            } else {
              dv[i] = st.*dbl_field;
            }
          }
          break;
        }
      }
      at += ne;
    }
    col->RecountNulls();
    if (partial_avg) {
      cnt->RecountNulls();
      out->AddColumn(plan_.agg_names[a] + "$sum", std::move(col));
      out->AddColumn(plan_.agg_names[a] + "$cnt", std::move(cnt));
    } else {
      out->AddColumn(plan_.agg_names[a], std::move(col));
    }
  }
  typed_parts_.clear();
  return out;
}

Result<SelBatch> HashAggOperator::Next() {
  if (emitted_) return SelBatch{};
  emitted_ = true;
  PIXELS_ASSIGN_OR_RETURN(RowBatchPtr out, TypedEmit());
  return SelBatch{std::move(out)};
}

}  // namespace pixels
