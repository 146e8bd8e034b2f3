// Row-at-a-time reference for the hash operators: grouped aggregation
// folded value by value (boxed Values, Value::Compare for MIN/MAX, a
// DISTINCT argument folded once per distinct ValuesKey) and a nested-loop
// equi-join, both over ReferenceEvaluate columns. Output columns are
// built into the plan's bound types.
// ReferenceQuery runs a query with every Join and Aggregate node replaced
// by its reference result; the other nodes (scan, filter, project, sort)
// run on the production operators. Join keys compare with ValuesKey
// equality, as the typed tables do: Int(1) never equals Double(1.0), and
// null keys never join.
#pragma once

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "exec/executor.h"
#include "exec/operators.h"
#include "plan/binder.h"
#include "plan/optimizer.h"
#include "testing/reference_eval.h"

namespace pixels {
namespace reference {

/// One aggregate's running state within one group.
struct AggAcc {
  int64_t count = 0;
  int64_t sum_i = 0;
  double sum_d = 0;
  bool any_double = false;
  Value min, max;
  std::set<std::string> distinct;

  void Add(const Value& v, bool is_distinct) {
    if (v.is_null()) return;
    if (is_distinct && !distinct.insert(ValuesKey({v})).second) return;
    ++count;
    if (v.kind == Value::Kind::kDouble) {
      any_double = true;
      sum_d += v.d;
    } else {
      sum_i += v.i;
      sum_d += static_cast<double>(v.i);
    }
    if (count == 1 || v.Compare(min) < 0) min = v;
    if (count == 1 || v.Compare(max) > 0) max = v;
  }

  Value Final(const std::string& fn) const {
    if (fn == "count") return Value::Int(count);
    if (count == 0) return Value::Null();
    if (fn == "sum") {
      return any_double ? Value::Double(sum_d) : Value::Int(sum_i);
    }
    if (fn == "avg") return Value::Double(sum_d / static_cast<double>(count));
    return fn == "min" ? min : max;
  }
};

/// Groups in first-occurrence order; one output batch.
inline Result<TablePtr> Aggregate(const LogicalPlan& node, const Table& in) {
  if (node.partial || node.merge_partials) {
    return Status::NotImplemented("reference: partial aggregation modes");
  }
  const size_t num_aggs = node.agg_exprs.size();
  std::map<std::string, size_t> index;
  std::vector<std::vector<Value>> keys;
  std::vector<std::vector<AggAcc>> accs;
  for (const auto& batch : in.batches()) {
    std::vector<ColumnVectorPtr> key_cols, arg_cols(num_aggs);
    for (const auto& g : node.group_exprs) {
      PIXELS_ASSIGN_OR_RETURN(ColumnVectorPtr col,
                              ReferenceEvaluate(*g, *batch));
      key_cols.push_back(std::move(col));
    }
    for (size_t a = 0; a < num_aggs; ++a) {
      const Expr& call = *node.agg_exprs[a];
      if (call.args.empty() || call.args[0]->kind == Expr::Kind::kStar) {
        continue;  // COUNT(*): every row counts
      }
      PIXELS_ASSIGN_OR_RETURN(arg_cols[a],
                              ReferenceEvaluate(*call.args[0], *batch));
    }
    for (size_t r = 0; r < batch->num_rows(); ++r) {
      std::vector<Value> key;
      for (const auto& col : key_cols) key.push_back(col->GetValue(r));
      auto [it, inserted] = index.emplace(ValuesKey(key), keys.size());
      if (inserted) {
        keys.push_back(std::move(key));
        accs.emplace_back(num_aggs);
      }
      for (size_t a = 0; a < num_aggs; ++a) {
        accs[it->second][a].Add(
            arg_cols[a] != nullptr ? arg_cols[a]->GetValue(r) : Value::Int(0),
            node.agg_exprs[a]->distinct);
      }
    }
  }
  if (keys.empty() && node.group_exprs.empty()) {  // global agg: one row
    keys.emplace_back();
    accs.emplace_back(num_aggs);
  }
  auto out = std::make_shared<RowBatch>();
  std::vector<Value> vals(keys.size());
  for (size_t k = 0; k < node.group_names.size(); ++k) {
    for (size_t g = 0; g < keys.size(); ++g) vals[g] = keys[g][k];
    PIXELS_ASSIGN_OR_RETURN(
        ColumnVectorPtr col,
        BuildVectorFromValues(vals, PayloadType(*node.group_exprs[k]->type)));
    out->AddColumn(node.group_names[k], std::move(col));
  }
  for (size_t a = 0; a < num_aggs; ++a) {
    const Expr& call = *node.agg_exprs[a];
    for (size_t g = 0; g < keys.size(); ++g) {
      vals[g] = accs[g][a].Final(call.name);
    }
    PIXELS_ASSIGN_OR_RETURN(ColumnVectorPtr col,
                            BuildVectorFromValues(vals, *call.type));
    out->AddColumn(node.agg_names[a], std::move(col));
  }
  auto table = std::make_shared<Table>();
  table->AddBatch(std::move(out));
  return table;
}

/// ValuesKey of `exprs` per row of `batch`; "" (never equal to a real,
/// prefixed key) when a component is null.
inline Result<std::vector<std::string>> RowKeys(
    const std::vector<const Expr*>& exprs, const RowBatch& batch) {
  std::vector<ColumnVectorPtr> cols;
  for (const Expr* e : exprs) {
    PIXELS_ASSIGN_OR_RETURN(ColumnVectorPtr col, ReferenceEvaluate(*e, batch));
    cols.push_back(std::move(col));
  }
  std::vector<std::string> keys(batch.num_rows());
  for (size_t r = 0; r < keys.size(); ++r) {
    std::vector<Value> key;
    bool null = false;
    for (const auto& col : cols) {
      null = null || col->IsNull(r);
      key.push_back(col->GetValue(r));
    }
    if (!null) keys[r] = "k" + ValuesKey(key);
  }
  return keys;
}

inline bool RefsIn(const Expr& e, const std::vector<std::string>& cols) {
  std::vector<std::string> refs;
  CollectColumnRefs(e, &refs);
  return !refs.empty() &&
         std::all_of(refs.begin(), refs.end(), [&](const std::string& r) {
           return std::find(cols.begin(), cols.end(), r) != cols.end();
         });
}

/// Every probe row against every build row: key equality selects the
/// pairs, the remaining conjuncts filter them, and an unmatched LEFT JOIN
/// probe row is padded with nulls. One output batch per probe batch; the
/// build columns take `right_types`, the build subtree's bound types.
inline Result<TablePtr> Join(const LogicalPlan& node, const Table& left,
                             const Table& right,
                             const std::vector<TypeId>& right_types) {
  const auto lcols = node.children[0]->OutputColumns();
  const auto rcols = node.children[1]->OutputColumns();
  std::vector<ExprPtr> conjuncts, rest;
  std::vector<const Expr*> lkeys, rkeys;
  if (node.join_condition != nullptr) {
    conjuncts = SplitConjuncts(*node.join_condition);
  }
  for (auto& c : conjuncts) {
    const bool eq = c->kind == Expr::Kind::kBinary && c->op == "=";
    if (eq && RefsIn(*c->args[0], lcols) && RefsIn(*c->args[1], rcols)) {
      lkeys.push_back(c->args[0].get());
      rkeys.push_back(c->args[1].get());
    } else if (eq && RefsIn(*c->args[1], lcols) && RefsIn(*c->args[0], rcols)) {
      lkeys.push_back(c->args[1].get());
      rkeys.push_back(c->args[0].get());
    } else {
      rest.push_back(std::move(c));
    }
  }
  const ExprPtr residual = CombineConjuncts(std::move(rest));

  struct BuildRow {
    const RowBatch* batch;
    size_t row;
    std::string key;
  };
  std::vector<BuildRow> build;
  for (const auto& b : right.batches()) {
    PIXELS_ASSIGN_OR_RETURN(auto keys, RowKeys(rkeys, *b));
    for (size_t r = 0; r < keys.size(); ++r) {
      build.push_back({b.get(), r, keys[r]});
    }
  }
  std::vector<std::string> rnames = right.ColumnNames();
  if (rnames.empty()) rnames = rcols;

  auto out = std::make_shared<Table>();
  for (const auto& probe : left.batches()) {
    PIXELS_ASSIGN_OR_RETURN(auto keys, RowKeys(lkeys, *probe));
    std::vector<uint32_t> lsel;
    std::vector<const BuildRow*> rsel;  // null = LEFT JOIN padding
    for (uint32_t l = 0; l < keys.size(); ++l) {
      const size_t before = lsel.size();
      for (const BuildRow& br : build) {
        if (keys[l].empty() || br.key != keys[l]) continue;
        lsel.push_back(l);
        rsel.push_back(&br);
      }
      if (lsel.size() == before && node.join_type == JoinClause::Type::kLeft) {
        lsel.push_back(l);
        rsel.push_back(nullptr);
      }
    }
    RowBatchPtr combined = probe->Gather(lsel);
    for (size_t c = 0; c < rnames.size(); ++c) {
      std::vector<Value> vals;
      for (const BuildRow* br : rsel) {
        vals.push_back(br == nullptr ? Value::Null()
                                     : br->batch->column(c)->GetValue(br->row));
      }
      PIXELS_ASSIGN_OR_RETURN(ColumnVectorPtr col,
                              BuildVectorFromValues(vals, right_types[c]));
      combined->AddColumn(rnames[c], std::move(col));
    }
    if (residual != nullptr && combined->num_rows() > 0) {
      PIXELS_ASSIGN_OR_RETURN(ColumnVectorPtr mask,
                              ReferenceEvaluate(*residual, *combined));
      std::vector<uint32_t> keep;
      for (uint32_t i = 0; i < mask->size(); ++i) {
        if (!mask->IsNull(i) && mask->GetValue(i).AsBool()) keep.push_back(i);
      }
      combined = combined->Gather(keep);
    }
    if (combined->num_rows() > 0) out->AddBatch(std::move(combined));
  }
  return out;
}

/// Replaces every Join and Aggregate node under `*node`, bottom-up, with a
/// materialized view of its reference result.
inline Status ReplaceHashNodes(PlanPtr* node, ExecContext* ctx) {
  const LogicalPlan& n = **node;
  const bool join = n.kind == LogicalPlan::Kind::kJoin;
  // Typed before the build subtree becomes a view of its result.
  PlanSchema right;
  if (join) {
    PIXELS_ASSIGN_OR_RETURN(right, OutputSchema(*n.children[1], ctx->catalog));
  }
  for (auto& child : (*node)->children) {
    PIXELS_RETURN_NOT_OK(ReplaceHashNodes(&child, ctx));
  }
  if (!join && n.kind != LogicalPlan::Kind::kAggregate) return Status::OK();
  std::vector<TablePtr> inputs;
  for (const auto& child : n.children) {
    PIXELS_ASSIGN_OR_RETURN(TablePtr t, ExecutePlan(child, ctx));
    inputs.push_back(std::move(t));
  }
  PIXELS_ASSIGN_OR_RETURN(TablePtr result,
                          join ? Join(n, *inputs[0], *inputs[1], right.types)
                               : Aggregate(n, *inputs[0]));
  PlanPtr view = MakeMaterializedView(std::move(result));
  view->view_columns = n.OutputColumns();
  *node = std::move(view);
  return Status::OK();
}

}  // namespace reference

/// Plans and optimizes `sql`, then executes it with row-at-a-time joins
/// and aggregates. Scans bill into `ctx` as usual; no runtime filter is
/// ever published, so its `bytes_scanned` is the runtime-filters-off bill.
inline Result<TablePtr> ReferenceQuery(const std::string& sql,
                                       const std::string& db,
                                       ExecContext* ctx) {
  PIXELS_ASSIGN_OR_RETURN(PlanPtr plan, PlanQuery(sql, *ctx->catalog, db));
  PIXELS_ASSIGN_OR_RETURN(plan, Optimize(std::move(plan), *ctx->catalog));
  PIXELS_RETURN_NOT_OK(reference::ReplaceHashNodes(&plan, ctx));
  return ExecutePlan(plan, ctx);
}

}  // namespace pixels
