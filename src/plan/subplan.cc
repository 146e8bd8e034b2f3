#include "plan/subplan.h"

namespace pixels {

namespace {

bool IsHeavy(const LogicalPlan& node) {
  switch (node.kind) {
    case LogicalPlan::Kind::kScan:
    case LogicalPlan::Kind::kJoin:
    case LogicalPlan::Kind::kAggregate:
      return true;
    case LogicalPlan::Kind::kFilter:
      // A scan returns every row of the row groups its zone maps keep, so
      // its Filter goes to the workers with it: views carry only the rows
      // the Filter keeps.
      return node.children[0]->kind == LogicalPlan::Kind::kScan;
    default:
      return false;
  }
}

bool HasDistinctAggregate(const LogicalPlan& agg) {
  for (const auto& e : agg.agg_exprs) {
    if (e->distinct) return true;
  }
  return false;
}

/// Finds the first heavy node walking down through unary light nodes.
/// Returns the owning child slot (or nullptr when root itself is heavy,
/// signalled via *root_is_heavy).
PlanPtr* FindHeavyBoundary(PlanPtr* root, bool* root_is_heavy) {
  *root_is_heavy = false;
  if (IsHeavy(**root)) {
    *root_is_heavy = true;
    return root;
  }
  PlanPtr* slot = root;
  while (true) {
    LogicalPlan& node = **slot;
    if (node.children.size() != 1) return nullptr;  // view/leaf: nothing heavy
    PlanPtr* child_slot = &node.children[0];
    if (IsHeavy(**child_slot)) return child_slot;
    slot = child_slot;
  }
}

}  // namespace

Result<SubPlanSplit> SplitForCf(const PlanPtr& plan) {
  SubPlanSplit split;
  split.final_plan = plan->Clone();

  bool root_is_heavy = false;
  PlanPtr* slot = FindHeavyBoundary(&split.final_plan, &root_is_heavy);
  if (slot == nullptr) {
    // Nothing heavy: the whole plan runs top-level.
    split.subplan = nullptr;
    return split;
  }

  PlanPtr heavy = *slot;

  if (heavy->kind == LogicalPlan::Kind::kAggregate &&
      !HasDistinctAggregate(*heavy) && !heavy->partial &&
      !heavy->merge_partials) {
    // Split into partial (CF) + final merge (top-level).
    PlanPtr partial = heavy->Clone();
    partial->partial = true;

    auto final_agg = std::make_shared<LogicalPlan>();
    final_agg->kind = LogicalPlan::Kind::kAggregate;
    final_agg->merge_partials = true;
    // Group by the partial output group columns.
    for (size_t g = 0; g < heavy->group_names.size(); ++g) {
      ExprPtr ref = MakeColumnRef("", heavy->group_names[g]);
      ref->type = PayloadType(*heavy->group_exprs[g]->type);
      final_agg->group_exprs.push_back(std::move(ref));
      final_agg->group_names.push_back(heavy->group_names[g]);
    }
    for (size_t i = 0; i < heavy->agg_exprs.size(); ++i) {
      final_agg->agg_exprs.push_back(heavy->agg_exprs[i]->Clone());
      final_agg->agg_names.push_back(heavy->agg_names[i]);
    }
    auto placeholder = MakeMaterializedView(nullptr);
    placeholder->view_columns = partial->OutputColumns();
    final_agg->children.push_back(std::move(placeholder));
    *slot = final_agg;

    split.subplan = std::move(partial);
    split.partial_agg = true;
    return split;
  }

  if (heavy->kind == LogicalPlan::Kind::kAggregate) {
    // Non-mergeable aggregate: push its child instead.
    PlanPtr child = heavy->children[0];
    auto placeholder = MakeMaterializedView(nullptr);
    placeholder->view_columns = child->OutputColumns();
    heavy->children[0] = std::move(placeholder);
    split.subplan = child;
    return split;
  }

  // Scan / Join / Filter-over-scan subtree: push it entirely.
  auto placeholder = MakeMaterializedView(nullptr);
  placeholder->view_columns = heavy->OutputColumns();
  *slot = std::move(placeholder);
  split.subplan = heavy;
  return split;
}

namespace {

Status InjectViewImpl(LogicalPlan* node, TablePtr* view, bool* injected) {
  if (node->kind == LogicalPlan::Kind::kMaterializedView &&
      node->view == nullptr) {
    if (*injected) return Status::Internal("multiple view placeholders");
    node->view = *view;
    // Keep the declared columns from the split (worker results use the
    // same names); fall back to the table's own names.
    if (node->view_columns.empty() && node->view != nullptr) {
      node->view_columns = node->view->ColumnNames();
    }
    *injected = true;
    return Status::OK();
  }
  for (auto& c : node->children) {
    PIXELS_RETURN_NOT_OK(InjectViewImpl(c.get(), view, injected));
  }
  return Status::OK();
}

/// Scans under `node` in tree order. With `partitionable`, skips the
/// null-supplying side of LEFT JOINs: a worker holding only part of it
/// would pad probe rows that another worker's part matches.
void FindScans(const PlanPtr& node, std::vector<LogicalPlan*>* scans,
               bool partitionable = false) {
  if (node->kind == LogicalPlan::Kind::kScan) scans->push_back(node.get());
  for (size_t i = 0; i < node->children.size(); ++i) {
    if (partitionable && i == 1 && node->kind == LogicalPlan::Kind::kJoin &&
        node->join_type == JoinClause::Type::kLeft) {
      continue;
    }
    FindScans(node->children[i], scans, partitionable);
  }
}

}  // namespace

Status InjectView(const PlanPtr& final_plan, TablePtr view) {
  bool injected = false;
  PIXELS_RETURN_NOT_OK(InjectViewImpl(final_plan.get(), &view, &injected));
  if (!injected) {
    return Status::FailedPrecondition("plan has no view placeholder");
  }
  return Status::OK();
}

Result<std::vector<PlanPtr>> PartitionSubplan(const PlanPtr& subplan,
                                              int num_workers,
                                              const Catalog& catalog) {
  if (num_workers <= 0) {
    return Status::InvalidArgument("num_workers must be positive");
  }
  std::vector<LogicalPlan*> scans;
  FindScans(subplan, &scans, /*partitionable=*/true);
  if (scans.empty()) {
    return Status::InvalidArgument("sub-plan has no scan to partition");
  }
  // Pick the largest base table as the partitioned side.
  LogicalPlan* largest = nullptr;
  uint64_t largest_bytes = 0;
  for (auto* scan : scans) {
    PIXELS_ASSIGN_OR_RETURN(const TableSchema* schema,
                            catalog.GetTable(scan->db, scan->table));
    if (largest == nullptr || schema->total_bytes >= largest_bytes) {
      largest = scan;
      largest_bytes = schema->total_bytes;
    }
  }
  PIXELS_ASSIGN_OR_RETURN(const TableSchema* part_schema,
                          catalog.GetTable(largest->db, largest->table));
  const auto& files = part_schema->files;
  if (files.empty()) {
    return Status::FailedPrecondition("partitioned table has no files: " +
                                      largest->table);
  }
  const int workers =
      std::min<int>(num_workers, static_cast<int>(files.size()));
  std::vector<PlanPtr> out;
  for (int w = 0; w < workers; ++w) {
    PlanPtr worker_plan = subplan->Clone();
    std::vector<LogicalPlan*> worker_scans;
    FindScans(worker_plan, &worker_scans);
    // Locate the clone of `largest` by table identity (db+table+alias).
    for (auto* scan : worker_scans) {
      if (scan->db == largest->db && scan->table == largest->table &&
          scan->table_alias == largest->table_alias) {
        for (size_t f = static_cast<size_t>(w); f < files.size();
             f += static_cast<size_t>(workers)) {
          scan->file_subset.push_back(files[f]);
        }
        break;
      }
    }
    out.push_back(std::move(worker_plan));
  }
  return out;
}

}  // namespace pixels
