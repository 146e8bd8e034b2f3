#include "exec/hash_agg.h"

#include "exec/expression.h"
#include "exec/kernels.h"
#include "exec/operators.h"

namespace pixels {

namespace {

/// Typed min/max updates mirroring AggState::Update's use of
/// Value::Compare: same-class comparisons run unboxed; mixed-kind states
/// (e.g. an int batch after a double batch) fall back to boxed Compare.
/// Storing Value::Int where AggState::Update would store Value::Bool is
/// output-identical (payloads equal, Compare is numeric across both,
/// and BuildVectorFromValues maps both to int64).
inline void MinMaxInt(HashAggOperator::AggState* st, int64_t x) {
  if (!st->has_minmax) {
    st->min = Value::Int(x);
    st->max = Value::Int(x);
    st->has_minmax = true;
    return;
  }
  if (st->min.kind != Value::Kind::kDouble &&
      st->min.kind != Value::Kind::kString) {
    if (x < st->min.i) st->min = Value::Int(x);
  } else {
    Value v = Value::Int(x);
    if (v.Compare(st->min) < 0) st->min = std::move(v);
  }
  if (st->max.kind != Value::Kind::kDouble &&
      st->max.kind != Value::Kind::kString) {
    if (x > st->max.i) st->max = Value::Int(x);
  } else {
    Value v = Value::Int(x);
    if (v.Compare(st->max) > 0) st->max = std::move(v);
  }
}

inline void MinMaxDouble(HashAggOperator::AggState* st, double x) {
  if (!st->has_minmax) {
    st->min = Value::Double(x);
    st->max = Value::Double(x);
    st->has_minmax = true;
    return;
  }
  if (st->min.kind == Value::Kind::kDouble) {
    if (x < st->min.d) st->min.d = x;
  } else {
    Value v = Value::Double(x);
    if (v.Compare(st->min) < 0) st->min = std::move(v);
  }
  if (st->max.kind == Value::Kind::kDouble) {
    if (x > st->max.d) st->max.d = x;
  } else {
    Value v = Value::Double(x);
    if (v.Compare(st->max) > 0) st->max = std::move(v);
  }
}

inline void MinMaxString(HashAggOperator::AggState* st, const std::string& x) {
  if (!st->has_minmax) {
    st->min = Value::String(x);
    st->max = Value::String(x);
    st->has_minmax = true;
    return;
  }
  if (st->min.kind == Value::Kind::kString) {
    if (x < st->min.s) st->min.s = x;
  } else {
    Value v = Value::String(x);
    if (v.Compare(st->min) < 0) st->min = std::move(v);
  }
  if (st->max.kind == Value::Kind::kString) {
    if (x > st->max.s) st->max.s = x;
  } else {
    Value v = Value::String(x);
    if (v.Compare(st->max) > 0) st->max = std::move(v);
  }
}

/// Final value of one boxed aggregate state (the CF merge mode, the
/// general typed mode, and the empty-input row all finalize here).
Value Finalize(const std::string& fn, bool distinct,
               const HashAggOperator::AggState& st) {
  if (fn == "count") {
    return Value::Int(distinct ? static_cast<int64_t>(st.distinct_keys.size())
                               : st.count);
  }
  if (st.count == 0) return Value::Null();
  if (fn == "sum") {
    return st.any_double ? Value::Double(st.sum_d) : Value::Int(st.sum_i);
  }
  if (fn == "avg") {
    return Value::Double(st.sum_d / static_cast<double>(st.count));
  }
  if (fn == "min") return st.min;
  if (fn == "max") return st.max;
  return Value::Null();
}

}  // namespace

void HashAggOperator::AggState::Update(const Value& v, bool distinct) {
  if (v.is_null()) return;
  if (distinct) {
    distinct_keys.insert(ValuesKey({v}));
    return;
  }
  ++count;
  if (v.kind == Value::Kind::kDouble) {
    any_double = true;
    sum_d += v.d;
  } else {
    sum_i += v.i;
    sum_d += static_cast<double>(v.i);
  }
  if (!has_minmax) {
    min = v;
    max = v;
    has_minmax = true;
  } else {
    if (v.Compare(min) < 0) min = v;
    if (v.Compare(max) > 0) max = v;
  }
}

Status HashAggOperator::PrepareTypedBatch(TypedBatch* tb) const {
  std::vector<ColumnVectorPtr> cols;
  PIXELS_ASSIGN_OR_RETURN(tb->in, tb->in.Evaluate(inputs_, &cols));
  const auto args = cols.begin() + plan_.group_exprs.size();
  tb->key_cols.assign(cols.begin(), args);
  tb->arg_cols.assign(args, cols.end());
  tb->hashes = HashKeyColumns(tb->key_cols, tb->in.batch->num_rows(), nullptr);
  return Status::OK();
}

Status HashAggOperator::ApplyTypedBatch(TypedPart* part, const TypedBatch& tb,
                                        size_t p, size_t num_parts) {
  const size_t num_aggs = plan_.agg_exprs.size();

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

  // Pass 2: per-aggregate typed update loops over this partition's rows.
  // Aggregates run against the densest state their history permits:
  // a bare count array for COUNT(*), one-cache-line NumAggState while
  // argument batches stay a single numeric family, and boxed AggState
  // only for strings, DISTINCT, and family flips.
  for (size_t a = 0; a < num_aggs; ++a) {
    const Expr& call = *plan_.agg_exprs[a];
    if (part->modes[a] == AggMode::kCountStar) {
      auto& cnt = part->counts[a];
      cnt.resize(ne);
      int64_t* c = cnt.data();
      for (size_t i = 0; i < rows.size(); ++i) ++c[gids[i]];
      continue;
    }
    const ColumnVector& col = *tb.arg_cols[a];
    const uint8_t* ok = col.valid_data();
    AggMode batch_mode;
    switch (col.type()) {
      case TypeId::kDouble: batch_mode = AggMode::kDouble; break;
      case TypeId::kString: batch_mode = AggMode::kGeneral; break;
      default: batch_mode = AggMode::kInt; break;
    }
    AggMode& mode = part->modes[a];
    if (mode == AggMode::kUnset) {
      mode = batch_mode;
    } else if (mode != batch_mode && mode != AggMode::kGeneral) {
      // Numeric family changed mid-stream (e.g. int batches then double
      // batches): rebox the accumulated compact state and continue on
      // the general loops, whose mixed-kind min/max matches
      // AggState::Update's Value::Compare fallback.
      ConvertTypedAggToGeneral(part, a);
    }
    if (mode == AggMode::kInt) {
      auto& ns = part->nums[a];
      ns.resize(ne);
      NumAggState* st0 = ns.data();
      const int64_t* v = col.ints_data();
      const bool is_bool = col.type() == TypeId::kBool;
      for (size_t i = 0; i < rows.size(); ++i) {
        const uint32_t r = rows[i];
        if (!ok[r]) continue;
        NumAggState& st = st0[gids[i]];
        const int64_t x = is_bool ? (v[r] != 0 ? 1 : 0) : v[r];
        ++st.count;
        st.sum_i += x;
        st.sum_d += static_cast<double>(x);
        if (!st.has_minmax) {
          st.min_i = x;
          st.max_i = x;
          st.has_minmax = true;
        } else {
          if (x < st.min_i) st.min_i = x;
          if (x > st.max_i) st.max_i = x;
        }
      }
      continue;
    }
    if (mode == AggMode::kDouble) {
      auto& ns = part->nums[a];
      ns.resize(ne);
      NumAggState* st0 = ns.data();
      const double* v = col.doubles_data();
      for (size_t i = 0; i < rows.size(); ++i) {
        const uint32_t r = rows[i];
        if (!ok[r]) continue;
        NumAggState& st = st0[gids[i]];
        const double x = v[r];
        ++st.count;
        st.sum_d += x;
        if (!st.has_minmax) {
          st.min_d = x;
          st.max_d = x;
          st.has_minmax = true;
        } else {
          if (x < st.min_d) st.min_d = x;
          if (x > st.max_d) st.max_d = x;
        }
      }
      continue;
    }

    // kGeneral: boxed AggState slots, same update loops as before.
    if (part->states.size() < ne * num_aggs) {
      part->states.resize(ne * num_aggs);
    }
    AggState* states = part->states.data();
    if (call.distinct) {
      // COUNT(DISTINCT): cold path, stays on serialized keys.
      for (size_t i = 0; i < rows.size(); ++i) {
        const uint32_t r = rows[i];
        if (!ok[r]) continue;
        states[gids[i] * num_aggs + a].distinct_keys.insert(
            ValuesKey({col.GetValue(r)}));
      }
      continue;
    }
    switch (col.type()) {
      case TypeId::kDouble: {
        const double* v = col.doubles_data();
        for (size_t i = 0; i < rows.size(); ++i) {
          const uint32_t r = rows[i];
          if (!ok[r]) continue;
          AggState& st = states[gids[i] * num_aggs + a];
          ++st.count;
          st.any_double = true;
          st.sum_d += v[r];
          MinMaxDouble(&st, v[r]);
        }
        break;
      }
      case TypeId::kString: {
        const std::string* v = col.strings_data();
        // Strings contribute nothing to sums (Value::String has i == 0).
        for (size_t i = 0; i < rows.size(); ++i) {
          const uint32_t r = rows[i];
          if (!ok[r]) continue;
          AggState& st = states[gids[i] * num_aggs + a];
          ++st.count;
          MinMaxString(&st, v[r]);
        }
        break;
      }
      default: {  // kBool / kInt32 / kInt64 / kDate / kTimestamp
        const int64_t* v = col.ints_data();
        const bool is_bool = col.type() == TypeId::kBool;
        for (size_t i = 0; i < rows.size(); ++i) {
          const uint32_t r = rows[i];
          if (!ok[r]) continue;
          AggState& st = states[gids[i] * num_aggs + a];
          const int64_t x = is_bool ? (v[r] != 0 ? 1 : 0) : v[r];
          ++st.count;
          st.sum_i += x;
          st.sum_d += static_cast<double>(x);
          MinMaxInt(&st, x);
        }
        break;
      }
    }
  }
  return Status::OK();
}

void HashAggOperator::ConvertTypedAggToGeneral(TypedPart* part, size_t a) {
  const size_t num_aggs = plan_.agg_exprs.size();
  const size_t ne = part->table.num_entries();
  if (part->states.size() < ne * num_aggs) {
    part->states.resize(ne * num_aggs);
  }
  const bool dbl = part->modes[a] == AggMode::kDouble;
  auto& ns = part->nums[a];
  for (size_t g = 0; g < ns.size(); ++g) {
    const NumAggState& s = ns[g];
    AggState& st = part->states[g * num_aggs + a];
    st.count = s.count;
    st.sum_i = s.sum_i;
    st.sum_d = s.sum_d;
    st.any_double = dbl && s.count > 0;
    st.has_minmax = s.has_minmax;
    if (s.has_minmax) {
      st.min = dbl ? Value::Double(s.min_d) : Value::Int(s.min_i);
      st.max = dbl ? Value::Double(s.max_d) : Value::Int(s.max_i);
    }
  }
  ns.clear();
  ns.shrink_to_fit();
  part->modes[a] = AggMode::kGeneral;
}

Status HashAggOperator::Consume(int par) {
  const size_t num_keys = plan_.group_exprs.size();
  const size_t num_aggs = plan_.agg_exprs.size();

  // COUNT(*) and DISTINCT modes are known up front; the numeric modes
  // resolve from the first argument batch each partition sees.
  auto make_part = [&]() {
    TypedPart part{GroupTable(num_keys, kHashTableLoadFactor), {}, {}, {}, {}};
    part.modes.assign(num_aggs, AggMode::kUnset);
    part.counts.resize(num_aggs);
    part.nums.resize(num_aggs);
    for (size_t a = 0; a < num_aggs; ++a) {
      const Expr& call = *plan_.agg_exprs[a];
      if (call.name == "count" &&
          (call.args.empty() || call.args[0]->kind == Expr::Kind::kStar)) {
        part.modes[a] = AggMode::kCountStar;
      } else if (call.distinct) {
        part.modes[a] = AggMode::kGeneral;
      }
    }
    return part;
  };

  // Key then argument expressions (null for COUNT(*)), evaluated per
  // batch through SelBatch::Evaluate.
  inputs_.clear();
  for (const auto& g : plan_.group_exprs) inputs_.push_back(g.get());
  for (const auto& call : plan_.agg_exprs) {
    const bool has_arg =
        !call->args.empty() && call->args[0]->kind != Expr::Kind::kStar;
    inputs_.push_back(has_arg ? call->args[0].get() : nullptr);
  }

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

Status HashAggOperator::ConsumeMerge() {
  while (true) {
    PIXELS_ASSIGN_OR_RETURN(SelBatch in, child_->Next());
    if (in.batch == nullptr) break;
    RowBatchPtr batch = in.Materialize();
    if (batch->num_rows() == 0) continue;
    // Locate group columns and state columns by name.
    std::vector<int> key_idx;
    for (const auto& gname : plan_.group_names) {
      int idx = batch->FindColumn(gname);
      if (idx < 0) {
        return Status::Internal("merge: missing group column " + gname);
      }
      key_idx.push_back(idx);
    }
    struct StateCols {
      int primary = -1;  // N (sum/count/min/max) or N$sum (avg)
      int cnt = -1;      // N$cnt (avg only)
    };
    std::vector<StateCols> state_idx(plan_.agg_exprs.size());
    for (size_t a = 0; a < plan_.agg_exprs.size(); ++a) {
      const std::string& name = plan_.agg_names[a];
      if (plan_.agg_exprs[a]->name == "avg") {
        state_idx[a].primary = batch->FindColumn(name + "$sum");
        state_idx[a].cnt = batch->FindColumn(name + "$cnt");
        if (state_idx[a].primary < 0 || state_idx[a].cnt < 0) {
          return Status::Internal("merge: missing avg state for " + name);
        }
      } else {
        state_idx[a].primary = batch->FindColumn(name);
        if (state_idx[a].primary < 0) {
          return Status::Internal("merge: missing state column " + name);
        }
      }
    }
    for (size_t r = 0; r < batch->num_rows(); ++r) {
      std::vector<Value> keys;
      for (int idx : key_idx) {
        keys.push_back(batch->column(static_cast<size_t>(idx))->GetValue(r));
      }
      std::string key = ValuesKey(keys);
      auto [it, inserted] = group_index_.emplace(key, groups_.size());
      if (inserted) {
        Group g;
        g.keys = std::move(keys);
        g.states.resize(plan_.agg_exprs.size());
        groups_.push_back(std::move(g));
      }
      Group& group = groups_[it->second];
      for (size_t a = 0; a < plan_.agg_exprs.size(); ++a) {
        const std::string& fn = plan_.agg_exprs[a]->name;
        AggState& st = group.states[a];
        Value v = batch->column(static_cast<size_t>(state_idx[a].primary))
                      ->GetValue(r);
        if (fn == "count") {
          // Partial counts merge by summation into the final count.
          if (!v.is_null()) st.count += v.AsInt();
        } else if (fn == "sum") {
          st.Update(v, false);  // merged via summation
        } else if (fn == "min" || fn == "max") {
          st.Update(v, false);
        } else if (fn == "avg") {
          Value cnt = batch->column(static_cast<size_t>(state_idx[a].cnt))
                          ->GetValue(r);
          if (!v.is_null()) {
            st.any_double = true;
            st.sum_d += v.AsDouble();
          }
          if (!cnt.is_null()) st.count += cnt.AsInt();
        }
      }
    }
  }
  return Status::OK();
}

Status HashAggOperator::Open() {
  PIXELS_RETURN_NOT_OK(child_->Open());
  if (plan_.merge_partials) return ConsumeMerge();  // small inputs: serial
  return Consume(ctx_->EffectiveParallelism());
}

Result<RowBatchPtr> HashAggOperator::Emit() {
  // Global aggregation over an empty input still emits one row.
  if (groups_.empty() && plan_.group_exprs.empty()) {
    Group g;
    g.states.resize(plan_.agg_exprs.size());
    groups_.push_back(std::move(g));
  }

  auto out = std::make_shared<RowBatch>();
  // Group key columns.
  for (size_t k = 0; k < plan_.group_names.size(); ++k) {
    std::vector<Value> vals;
    vals.reserve(groups_.size());
    for (const auto& g : groups_) vals.push_back(g.keys[k]);
    PIXELS_ASSIGN_OR_RETURN(ColumnVectorPtr col, BuildVectorFromValues(vals));
    out->AddColumn(plan_.group_names[k], std::move(col));
  }

  // Aggregate columns.
  for (size_t a = 0; a < plan_.agg_exprs.size(); ++a) {
    const std::string& fn = plan_.agg_exprs[a]->name;
    const std::string& name = plan_.agg_names[a];
    const bool distinct = plan_.agg_exprs[a]->distinct;

    if (plan_.partial && fn == "avg") {
      // Two state columns: N$sum, N$cnt.
      std::vector<Value> sums, cnts;
      for (const auto& g : groups_) {
        const AggState& st = g.states[a];
        sums.push_back(st.count == 0 ? Value::Null() : Value::Double(st.sum_d));
        cnts.push_back(Value::Int(st.count));
      }
      PIXELS_ASSIGN_OR_RETURN(ColumnVectorPtr sum_col,
                              BuildVectorFromValues(sums));
      PIXELS_ASSIGN_OR_RETURN(ColumnVectorPtr cnt_col,
                              BuildVectorFromValues(cnts));
      out->AddColumn(name + "$sum", std::move(sum_col));
      out->AddColumn(name + "$cnt", std::move(cnt_col));
      continue;
    }

    std::vector<Value> vals;
    vals.reserve(groups_.size());
    for (const auto& g : groups_) {
      vals.push_back(Finalize(fn, distinct, g.states[a]));
    }
    PIXELS_ASSIGN_OR_RETURN(ColumnVectorPtr col, BuildVectorFromValues(vals));
    out->AddColumn(name, std::move(col));
  }
  return out;
}

Result<RowBatchPtr> HashAggOperator::TypedEmit() {
  size_t total = 0;
  for (const auto& part : typed_parts_) total += part.table.num_entries();
  if (total == 0) {
    // Emit's empty-groups handling covers both the global-aggregation
    // one-default-row case and the grouped zero-row case exactly.
    typed_parts_.clear();
    return Emit();
  }

  const size_t num_aggs = plan_.agg_exprs.size();
  auto out = std::make_shared<RowBatch>();

  // Group key columns: rebox each stored key component once, straight
  // from the KeyStore (partitions in order, entries in first-insertion
  // order within each).
  for (size_t k = 0; k < plan_.group_names.size(); ++k) {
    std::vector<Value> vals;
    vals.reserve(total);
    for (const auto& part : typed_parts_) {
      const KeyStore& keys = part.table.keys();
      for (size_t g = 0; g < part.table.num_entries(); ++g) {
        vals.push_back(keys.GetValue(g, k));
      }
    }
    PIXELS_ASSIGN_OR_RETURN(ColumnVectorPtr col, BuildVectorFromValues(vals));
    out->AddColumn(plan_.group_names[k], std::move(col));
  }

  // Aggregate columns, finalized directly from the flat state arrays.
  for (size_t a = 0; a < num_aggs; ++a) {
    const std::string& fn = plan_.agg_exprs[a]->name;
    const std::string& name = plan_.agg_names[a];
    const bool distinct = plan_.agg_exprs[a]->distinct;

    auto state_value = [&](const TypedPart& part, size_t g) -> Value {
      const AggMode mode = part.modes[a];
      if (mode == AggMode::kGeneral) {
        return Finalize(fn, distinct, part.states[g * num_aggs + a]);
      }
      if (mode == AggMode::kCountStar) return Value::Int(part.counts[a][g]);
      if (mode == AggMode::kUnset) {
        return fn == "count" ? Value::Int(0) : Value::Null();
      }
      const NumAggState& st = part.nums[a][g];
      if (fn == "count") return Value::Int(st.count);
      if (st.count == 0) return Value::Null();
      const bool dbl = mode == AggMode::kDouble;
      if (fn == "sum") {
        return dbl ? Value::Double(st.sum_d) : Value::Int(st.sum_i);
      }
      if (fn == "avg") {
        return Value::Double(st.sum_d / static_cast<double>(st.count));
      }
      if (fn == "min") {
        return dbl ? Value::Double(st.min_d) : Value::Int(st.min_i);
      }
      if (fn == "max") {
        return dbl ? Value::Double(st.max_d) : Value::Int(st.max_i);
      }
      return Value::Null();
    };

    if (plan_.partial && fn == "avg") {
      // Two state columns: N$sum, N$cnt.
      std::vector<Value> sums, cnts;
      sums.reserve(total);
      cnts.reserve(total);
      for (const auto& part : typed_parts_) {
        for (size_t g = 0; g < part.table.num_entries(); ++g) {
          int64_t cnt = 0;
          double sum_d = 0;
          switch (part.modes[a]) {
            case AggMode::kGeneral: {
              const AggState& st = part.states[g * num_aggs + a];
              cnt = st.count;
              sum_d = st.sum_d;
              break;
            }
            case AggMode::kInt:
            case AggMode::kDouble: {
              const NumAggState& st = part.nums[a][g];
              cnt = st.count;
              sum_d = st.sum_d;
              break;
            }
            default:  // kCountStar is unreachable (avg has an argument)
              break;
          }
          sums.push_back(cnt == 0 ? Value::Null() : Value::Double(sum_d));
          cnts.push_back(Value::Int(cnt));
        }
      }
      PIXELS_ASSIGN_OR_RETURN(ColumnVectorPtr sum_col,
                              BuildVectorFromValues(sums));
      PIXELS_ASSIGN_OR_RETURN(ColumnVectorPtr cnt_col,
                              BuildVectorFromValues(cnts));
      out->AddColumn(name + "$sum", std::move(sum_col));
      out->AddColumn(name + "$cnt", std::move(cnt_col));
      continue;
    }

    std::vector<Value> vals;
    vals.reserve(total);
    for (const auto& part : typed_parts_) {
      for (size_t g = 0; g < part.table.num_entries(); ++g) {
        vals.push_back(state_value(part, g));
      }
    }
    PIXELS_ASSIGN_OR_RETURN(ColumnVectorPtr col, BuildVectorFromValues(vals));
    out->AddColumn(name, std::move(col));
  }
  typed_parts_.clear();
  return out;
}

Result<SelBatch> HashAggOperator::Next() {
  if (emitted_) return SelBatch{};
  emitted_ = true;
  PIXELS_ASSIGN_OR_RETURN(RowBatchPtr out,
                          plan_.merge_partials ? Emit() : TypedEmit());
  return SelBatch{std::move(out)};
}

}  // namespace pixels
