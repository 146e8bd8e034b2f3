#include "plan/logical_plan.h"

#include <algorithm>

namespace pixels {

std::vector<std::string> LogicalPlan::OutputColumns() const {
  switch (kind) {
    case Kind::kScan: {
      std::vector<std::string> out;
      const std::string& q = table_alias.empty() ? table : table_alias;
      for (const auto& c : columns) out.push_back(q + "." + c);
      return out;
    }
    case Kind::kFilter:
    case Kind::kSort:
    case Kind::kLimit:
    case Kind::kDistinct:
      return children[0]->OutputColumns();
    case Kind::kProject:
      return names;
    case Kind::kJoin: {
      if (!columns.empty()) return columns;
      auto out = children[0]->OutputColumns();
      auto right = children[1]->OutputColumns();
      out.insert(out.end(), right.begin(), right.end());
      return out;
    }
    case Kind::kAggregate: {
      std::vector<std::string> out = group_names;
      if (partial) {
        // Partial aggregates additionally expose their state columns in
        // agg_names order; the executor defines the exact layout.
        out.insert(out.end(), agg_names.begin(), agg_names.end());
      } else {
        out.insert(out.end(), agg_names.begin(), agg_names.end());
      }
      return out;
    }
    case Kind::kMaterializedView:
      return view_columns;
  }
  return {};
}

size_t LogicalPlan::NumOutputColumns() const {
  switch (kind) {
    case Kind::kScan:
      return columns.size();
    case Kind::kFilter:
    case Kind::kSort:
    case Kind::kLimit:
    case Kind::kDistinct:
      return children[0]->NumOutputColumns();
    case Kind::kProject:
      return names.size();
    case Kind::kJoin:
      if (!columns.empty()) return columns.size();
      return children[0]->NumOutputColumns() + children[1]->NumOutputColumns();
    case Kind::kAggregate:
      return group_names.size() + agg_names.size();
    case Kind::kMaterializedView:
      return view_columns.size();
  }
  return 0;
}

Result<PlanSchema> OutputSchema(const LogicalPlan& plan,
                                const Catalog* catalog) {
  // The children's schemas, appended in child order.
  PlanSchema input;
  for (const auto& c : plan.children) {
    PIXELS_ASSIGN_OR_RETURN(PlanSchema s, OutputSchema(*c, catalog));
    input.names.insert(input.names.end(), s.names.begin(), s.names.end());
    input.types.insert(input.types.end(), s.types.begin(), s.types.end());
  }
  PlanSchema out;
  auto typed = [](const ExprPtr& e) -> Result<TypeId> {
    if (!e->type) return Status::Internal("unbound expression: " + e->ToString());
    return *e->type;
  };
  switch (plan.kind) {
    case LogicalPlan::Kind::kScan: {
      if (catalog == nullptr) return Status::Internal("scan schema needs a catalog");
      PIXELS_ASSIGN_OR_RETURN(const TableSchema* schema,
                              catalog->GetTable(plan.db, plan.table));
      out.names = plan.OutputColumns();
      for (const auto& c : plan.columns) {
        PIXELS_ASSIGN_OR_RETURN(TypeId t, schema->ColumnType(c));
        out.types.push_back(t);
      }
      return out;
    }
    case LogicalPlan::Kind::kFilter:
    case LogicalPlan::Kind::kSort:
    case LogicalPlan::Kind::kLimit:
    case LogicalPlan::Kind::kDistinct:
      return input;
    case LogicalPlan::Kind::kJoin:
      if (plan.columns.empty()) return input;
      for (const auto& name : plan.columns) {
        const auto it = std::find(input.names.begin(), input.names.end(), name);
        if (it == input.names.end()) {
          return Status::Internal("join keeps an unknown column: " + name);
        }
        out.names.push_back(name);
        out.types.push_back(input.types[static_cast<size_t>(it - input.names.begin())]);
      }
      return out;
    case LogicalPlan::Kind::kProject:
    case LogicalPlan::Kind::kAggregate: {
      // A group key outputs its payload type; a projection has none.
      out.names = plan.OutputColumns();
      for (const auto& e : plan.group_exprs) {
        PIXELS_ASSIGN_OR_RETURN(TypeId t, typed(e));
        out.types.push_back(PayloadType(t));
      }
      const bool project = plan.kind == LogicalPlan::Kind::kProject;
      for (const auto& e : project ? plan.exprs : plan.agg_exprs) {
        PIXELS_ASSIGN_OR_RETURN(TypeId t, typed(e));
        out.types.push_back(t);
      }
      return out;
    }
    case LogicalPlan::Kind::kMaterializedView: {
      out.names = plan.view_columns;
      const RowBatch* first = plan.view != nullptr && !plan.view->batches().empty()
                                  ? plan.view->batches()[0].get()
                                  : nullptr;
      for (const auto& name : out.names) {
        const int idx = first != nullptr ? first->FindColumn(name) : -1;
        out.types.push_back(
            idx < 0 ? TypeId::kInt64 : first->column(static_cast<size_t>(idx))->type());
      }
      return out;
    }
  }
  return out;
}

std::string LogicalPlan::ToString(int indent) const {
  std::string pad(static_cast<size_t>(indent) * 2, ' ');
  std::string s = pad;
  auto add_columns = [&] {
    if (columns.empty()) return;
    s += " [";
    for (size_t i = 0; i < columns.size(); ++i) {
      if (i > 0) s += ", ";
      s += columns[i];
    }
    s += "]";
  };
  switch (kind) {
    case Kind::kScan: {
      s += "Scan " + db + "." + table;
      if (!table_alias.empty() && table_alias != table) s += " AS " + table_alias;
      add_columns();
      for (const auto& p : pushed) {
        s += " {" + p.column + " " + p.op + " " + p.literal.ToString() + "}";
      }
      for (const auto& rf : runtime_filters) {
        s += " <rf" + std::to_string(rf.id) + ":" + rf.column + ">";
      }
      break;
    }
    case Kind::kFilter:
      s += "Filter " + predicate->ToString();
      break;
    case Kind::kProject: {
      s += "Project ";
      for (size_t i = 0; i < exprs.size(); ++i) {
        if (i > 0) s += ", ";
        s += exprs[i]->ToString() + " AS " + names[i];
      }
      break;
    }
    case Kind::kJoin:
      s += join_type == JoinClause::Type::kLeft
               ? "LeftJoin"
               : (join_type == JoinClause::Type::kCross ? "CrossJoin" : "Join");
      if (join_condition) s += " ON " + join_condition->ToString();
      add_columns();
      if (rf_id >= 0) {
        s += " <rf" + std::to_string(rf_id) + " build " + rf_build_column + ">";
      }
      break;
    case Kind::kAggregate: {
      s += partial ? "PartialAggregate" : (merge_partials ? "FinalAggregate"
                                                          : "Aggregate");
      s += " groups=[";
      for (size_t i = 0; i < group_exprs.size(); ++i) {
        if (i > 0) s += ", ";
        s += group_exprs[i]->ToString();
      }
      s += "] aggs=[";
      for (size_t i = 0; i < agg_exprs.size(); ++i) {
        if (i > 0) s += ", ";
        s += agg_exprs[i]->ToString();
      }
      s += "]";
      break;
    }
    case Kind::kSort: {
      s += "Sort ";
      for (size_t i = 0; i < order_by.size(); ++i) {
        if (i > 0) s += ", ";
        s += order_by[i].expr->ToString();
        s += order_by[i].ascending ? " ASC" : " DESC";
      }
      break;
    }
    case Kind::kLimit:
      s += "Limit " + std::to_string(limit);
      break;
    case Kind::kDistinct:
      s += "Distinct";
      break;
    case Kind::kMaterializedView:
      s += "MaterializedView rows=" +
           std::to_string(view ? view->num_rows() : 0);
      break;
  }
  s += "\n";
  for (const auto& c : children) s += c->ToString(indent + 1);
  return s;
}

PlanPtr LogicalPlan::Clone() const {
  auto out = std::make_shared<LogicalPlan>();
  out->kind = kind;
  for (const auto& c : children) out->children.push_back(c->Clone());
  out->db = db;
  out->table = table;
  out->table_alias = table_alias;
  out->columns = columns;
  out->pushed = pushed;
  out->file_subset = file_subset;
  out->runtime_filters = runtime_filters;
  out->predicate = predicate ? predicate->Clone() : nullptr;
  for (const auto& e : exprs) out->exprs.push_back(e->Clone());
  out->names = names;
  out->join_type = join_type;
  out->join_condition = join_condition ? join_condition->Clone() : nullptr;
  out->rf_id = rf_id;
  out->rf_build_column = rf_build_column;
  for (const auto& e : group_exprs) out->group_exprs.push_back(e->Clone());
  out->group_names = group_names;
  for (const auto& e : agg_exprs) out->agg_exprs.push_back(e->Clone());
  out->agg_names = agg_names;
  out->partial = partial;
  out->merge_partials = merge_partials;
  for (const auto& o : order_by) {
    out->order_by.push_back(OrderItem{o.expr->Clone(), o.ascending});
  }
  out->limit = limit;
  out->view = view;
  out->view_columns = view_columns;
  return out;
}

bool LogicalPlan::Contains(Kind k) const {
  if (kind == k) return true;
  for (const auto& c : children) {
    if (c->Contains(k)) return true;
  }
  return false;
}

uint64_t LogicalPlan::EstimatedScanBytes(
    const std::function<uint64_t(const std::string&, const std::string&)>&
        table_bytes) const {
  uint64_t total = 0;
  if (kind == Kind::kScan) total += table_bytes(db, table);
  for (const auto& c : children) total += c->EstimatedScanBytes(table_bytes);
  return total;
}

PlanPtr MakeScan(std::string db, std::string table, std::string alias) {
  auto p = std::make_shared<LogicalPlan>();
  p->kind = LogicalPlan::Kind::kScan;
  p->db = std::move(db);
  p->table = std::move(table);
  p->table_alias = std::move(alias);
  return p;
}

PlanPtr MakeFilter(PlanPtr child, ExprPtr predicate) {
  auto p = std::make_shared<LogicalPlan>();
  p->kind = LogicalPlan::Kind::kFilter;
  p->children.push_back(std::move(child));
  p->predicate = std::move(predicate);
  return p;
}

PlanPtr MakeProject(PlanPtr child, std::vector<ExprPtr> exprs,
                    std::vector<std::string> names) {
  auto p = std::make_shared<LogicalPlan>();
  p->kind = LogicalPlan::Kind::kProject;
  p->children.push_back(std::move(child));
  p->exprs = std::move(exprs);
  p->names = std::move(names);
  return p;
}

PlanPtr MakeJoin(PlanPtr left, PlanPtr right, JoinClause::Type type,
                 ExprPtr condition) {
  auto p = std::make_shared<LogicalPlan>();
  p->kind = LogicalPlan::Kind::kJoin;
  p->children.push_back(std::move(left));
  p->children.push_back(std::move(right));
  p->join_type = type;
  p->join_condition = std::move(condition);
  return p;
}

PlanPtr MakeLimit(PlanPtr child, int64_t limit) {
  auto p = std::make_shared<LogicalPlan>();
  p->kind = LogicalPlan::Kind::kLimit;
  p->children.push_back(std::move(child));
  p->limit = limit;
  return p;
}

PlanPtr MakeMaterializedView(TablePtr table) {
  auto p = std::make_shared<LogicalPlan>();
  p->kind = LogicalPlan::Kind::kMaterializedView;
  p->view = std::move(table);
  if (p->view) p->view_columns = p->view->ColumnNames();
  return p;
}

}  // namespace pixels
