#include "format/batch.h"

#include <string_view>
#include <utility>

namespace pixels {

namespace {
// Splits "qualifier.column" at the last '.'; a bare name has an empty
// qualifier.
std::pair<std::string_view, std::string_view> SplitName(std::string_view name) {
  const size_t dot = name.rfind('.');
  if (dot == std::string_view::npos) return {std::string_view(), name};
  return {name.substr(0, dot), name.substr(dot + 1)};
}
}  // namespace

void RowBatch::AddColumn(std::string name, ColumnVectorPtr col) {
  names_.push_back(std::move(name));
  columns_.push_back(std::move(col));
}

int FindName(const std::vector<std::string>& names, const std::string& name) {
  // Pass 1: exact match.
  for (size_t i = 0; i < names.size(); ++i) {
    if (names[i] == name) return static_cast<int>(i);
  }
  // Pass 2: unqualified lookup against qualified columns (and vice versa),
  // only when unambiguous. Two qualified names never match across
  // qualifiers: `a.id` must not read `b.id`.
  int found = -1;
  const auto [qualifier, base] = SplitName(name);
  for (size_t i = 0; i < names.size(); ++i) {
    const auto [col_qualifier, col_base] = SplitName(names[i]);
    // Same qualifier and base would have matched exactly in pass 1.
    if (col_base != base || (!qualifier.empty() && !col_qualifier.empty())) {
      continue;
    }
    if (found >= 0) return -1;  // ambiguous
    found = static_cast<int>(i);
  }
  return found;
}

std::shared_ptr<RowBatch> RowBatch::Gather(
    const std::vector<uint32_t>& sel) const {
  auto out = std::make_shared<RowBatch>();
  for (size_t c = 0; c < columns_.size(); ++c) {
    out->AddColumn(names_[c], columns_[c]->Gather(sel));
  }
  return out;
}

std::string RowBatch::RowToString(size_t i) const {
  std::string out;
  for (size_t c = 0; c < columns_.size(); ++c) {
    if (c > 0) out += '\t';
    Value v = columns_[c]->GetValue(i);
    // Strings render unquoted in result listings.
    out += v.kind == Value::Kind::kString ? v.s : v.ToString();
  }
  return out;
}

uint64_t RowBatch::ApproxBytes() const {
  uint64_t total = 0;
  for (const auto& col : columns_) {
    size_t w = FixedWidth(col->type());
    if (w > 0) {
      total += col->size() * (w + 1);
    } else {
      for (size_t i = 0; i < col->size(); ++i) {
        total += (col->IsNull(i) ? 0 : col->GetString(i).size()) + 5;
      }
    }
  }
  return total;
}

size_t Table::num_rows() const {
  size_t n = 0;
  for (const auto& b : batches_) n += b->num_rows();
  return n;
}

std::vector<std::string> Table::ColumnNames() const {
  std::vector<std::string> names;
  if (!batches_.empty()) {
    for (size_t i = 0; i < batches_[0]->num_columns(); ++i) {
      names.push_back(batches_[0]->name(i));
    }
  }
  return names;
}

std::string Table::ToString(size_t limit) const {
  std::string out;
  auto names = ColumnNames();
  for (size_t i = 0; i < names.size(); ++i) {
    if (i > 0) out += '\t';
    out += names[i];
  }
  out += '\n';
  size_t printed = 0;
  for (const auto& b : batches_) {
    for (size_t r = 0; r < b->num_rows() && printed < limit; ++r, ++printed) {
      out += b->RowToString(r);
      out += '\n';
    }
    if (printed >= limit) break;
  }
  size_t total = num_rows();
  if (total > printed) {
    out += "... (" + std::to_string(total - printed) + " more rows)\n";
  }
  return out;
}

std::vector<Value> Table::CollectColumn(const std::string& name) const {
  std::vector<Value> out;
  for (const auto& b : batches_) {
    int idx = b->FindColumn(name);
    if (idx < 0) continue;
    const auto& col = b->column(static_cast<size_t>(idx));
    for (size_t i = 0; i < col->size(); ++i) out.push_back(col->GetValue(i));
  }
  return out;
}

}  // namespace pixels
