#include "exec/profile.h"

#include <chrono>
#include <cstdio>

namespace pixels {

OperatorProfile* QueryProfile::AddNode(const std::string& name,
                                       OperatorProfile* parent,
                                       bool measures_io) {
  std::lock_guard<std::mutex> lock(mutex_);
  arena_.emplace_back();
  OperatorProfile* node = &arena_.back();
  node->name = name;
  node->parent = parent;
  node->measures_io = measures_io;
  if (parent != nullptr) parent->children.push_back(node);
  return node;
}

uint64_t QueryProfile::TotalBytesScanned() const {
  std::lock_guard<std::mutex> lock(mutex_);
  uint64_t total = 0;
  for (const auto& node : arena_) {
    if (node.measures_io) {
      total += node.bytes_scanned.load(std::memory_order_relaxed);
    }
  }
  return total;
}

std::vector<const OperatorProfile*> QueryProfile::Roots() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<const OperatorProfile*> roots;
  for (const auto& node : arena_) {
    if (node.parent == nullptr) roots.push_back(&node);
  }
  return roots;
}

size_t QueryProfile::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return arena_.size();
}

namespace {

void RenderNode(const OperatorProfile* node, int depth, std::string* out) {
  out->append(static_cast<size_t>(depth) * 2, ' ');
  *out += node->name;
  *out += "  rows=" + std::to_string(node->rows_out.load());
  *out += " batches=" + std::to_string(node->batches_out.load());
  if (node->measures_io) {
    *out += " bytes_scanned=" + std::to_string(node->bytes_scanned.load());
    *out += " cache_hits=" + std::to_string(node->cache_hits.load());
    *out += " cache_misses=" + std::to_string(node->cache_misses.load());
  }
  // Runtime-filter counters appear only when a filter actually probed or
  // pruned something, so plans without filters render unchanged.
  if (node->rf_probe_rows.load() != 0 || node->rf_pruned_row_groups.load() != 0) {
    *out += " rf_probe_rows=" + std::to_string(node->rf_probe_rows.load());
    *out += " rf_pruned_rows=" + std::to_string(node->rf_pruned_rows.load());
    *out += " rf_pruned_row_groups=" +
            std::to_string(node->rf_pruned_row_groups.load());
    *out += " rf_skipped_bytes=" + std::to_string(node->rf_skipped_bytes.load());
    const uint64_t probed = node->rf_probe_rows.load();
    if (probed != 0) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.3f",
                    1.0 - static_cast<double>(node->rf_pruned_rows.load()) /
                              static_cast<double>(probed));
      *out += std::string(" rf_selectivity=") + buf;
    }
  }
  // Per-operator selectivity: rows out over rows in (children's rows out).
  uint64_t rows_in = 0;
  for (const OperatorProfile* child : node->children) {
    rows_in += child->rows_out.load();
  }
  if (!node->children.empty() && rows_in != 0) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.3f",
                  static_cast<double>(node->rows_out.load()) /
                      static_cast<double>(rows_in));
    *out += std::string(" sel=") + buf;
  }
  *out += " wall_us=" + std::to_string(node->wall_us.load());
  *out += "\n";
  for (const OperatorProfile* child : node->children) {
    RenderNode(child, depth + 1, out);
  }
}

}  // namespace

std::string QueryProfile::ToText() const {
  const auto roots = Roots();
  if (roots.empty()) {
    return "EXPLAIN ANALYZE\n(no operators executed: result served without "
           "a scan, e.g. from the materialized-view store)\n";
  }
  std::string out = "EXPLAIN ANALYZE\n";
  for (const OperatorProfile* root : roots) RenderNode(root, 0, &out);
  out += "total bytes_scanned=" + std::to_string(TotalBytesScanned()) + "\n";
  return out;
}

namespace {

class ScopedWall {
 public:
  explicit ScopedWall(OperatorProfile* node)
      : node_(node), start_(std::chrono::steady_clock::now()) {}
  ~ScopedWall() {
    const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                        std::chrono::steady_clock::now() - start_)
                        .count();
    node_->wall_us.fetch_add(static_cast<uint64_t>(us),
                             std::memory_order_relaxed);
  }

 private:
  OperatorProfile* node_;
  std::chrono::steady_clock::time_point start_;
};

/// Deltas of the context's scan counters around one Open/Next call,
/// attributed to `node`. Valid because pulls are serial from the root:
/// nothing else moves the counters while an io-measuring call runs.
class ScopedIoDelta {
 public:
  ScopedIoDelta(OperatorProfile* node, ExecContext* ctx)
      : node_(node),
        ctx_(ctx),
        bytes_(ctx->bytes_scanned.load()),
        hits_(ctx->cache_hits.load()),
        misses_(ctx->cache_misses.load()),
        rf_(RfStats::From(*ctx)) {}
  ~ScopedIoDelta() {
    node_->bytes_scanned.fetch_add(ctx_->bytes_scanned.load() - bytes_,
                                   std::memory_order_relaxed);
    node_->cache_hits.fetch_add(ctx_->cache_hits.load() - hits_,
                                std::memory_order_relaxed);
    node_->cache_misses.fetch_add(ctx_->cache_misses.load() - misses_,
                                  std::memory_order_relaxed);
    node_->AddRf(RfStats::From(*ctx_) - rf_);
  }

 private:
  OperatorProfile* node_;
  ExecContext* ctx_;
  uint64_t bytes_;
  uint64_t hits_;
  uint64_t misses_;
  RfStats rf_;
};

}  // namespace

Status ProfilingOperator::Open() {
  ScopedWall wall(node_);
  if (node_->measures_io) {
    ScopedIoDelta io(node_, ctx_);
    return child_->Open();
  }
  return child_->Open();
}

Result<SelBatch> ProfilingOperator::Next() {
  ScopedWall wall(node_);
  Result<SelBatch> result = [&] {
    if (node_->measures_io) {
      ScopedIoDelta io(node_, ctx_);
      return child_->Next();
    }
    return child_->Next();
  }();
  if (result.ok() && result->batch != nullptr) {
    node_->rows_out.fetch_add(result->num_selected(),
                              std::memory_order_relaxed);
    node_->batches_out.fetch_add(1, std::memory_order_relaxed);
  }
  return result;
}

}  // namespace pixels
