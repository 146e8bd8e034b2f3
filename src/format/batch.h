// RowBatch: the unit of data flow between operators — a set of equally
// sized column vectors with names.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "format/vector.h"

namespace pixels {

/// Ascending row indices selected out of a batch (produced by the filter
/// kernels in exec/kernels.h, consumed by Gather and the selection-aware
/// operators).
using SelectionVector = std::vector<uint32_t>;

/// Index of `name` in `names`, or -1: an exact match first, then a bare
/// name against a qualified one (or the reverse) when unambiguous. Two
/// qualified names never match across qualifiers.
int FindName(const std::vector<std::string>& names, const std::string& name);

/// A batch of rows in columnar layout. Column names are carried alongside
/// so operators can resolve columns produced by upstream operators.
class RowBatch {
 public:
  RowBatch() = default;

  /// Adds a column; all columns must end up the same length.
  void AddColumn(std::string name, ColumnVectorPtr col);

  size_t num_columns() const { return columns_.size(); }
  size_t num_rows() const { return columns_.empty() ? 0 : columns_[0]->size(); }

  const std::string& name(size_t i) const { return names_[i]; }
  const ColumnVectorPtr& column(size_t i) const { return columns_[i]; }

  /// Index of the named column, or -1, by FindName's rules.
  int FindColumn(const std::string& name) const { return FindName(names_, name); }

  /// Returns a batch with only the rows whose indices appear in `sel`.
  std::shared_ptr<RowBatch> Gather(const std::vector<uint32_t>& sel) const;

  /// Renders row `i` as tab-separated values.
  std::string RowToString(size_t i) const;

  /// Rough in-memory footprint in bytes (payload only).
  uint64_t ApproxBytes() const;

 private:
  std::vector<std::string> names_;
  std::vector<ColumnVectorPtr> columns_;
};

using RowBatchPtr = std::shared_ptr<RowBatch>;

/// A fully materialized table: a schema-compatible list of batches. Used
/// for query results and CF-produced materialized views.
class Table {
 public:
  Table() = default;

  void AddBatch(RowBatchPtr batch) { batches_.push_back(std::move(batch)); }

  const std::vector<RowBatchPtr>& batches() const { return batches_; }
  size_t num_rows() const;

  /// Column names of the first batch (empty if no batches).
  std::vector<std::string> ColumnNames() const;

  /// Renders up to `limit` rows as text with a header line.
  std::string ToString(size_t limit = 20) const;

  /// Collects one column across batches as Values (for tests).
  std::vector<Value> CollectColumn(const std::string& name) const;

 private:
  std::vector<RowBatchPtr> batches_;
};

using TablePtr = std::shared_ptr<Table>;

}  // namespace pixels
