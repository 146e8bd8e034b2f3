#include "turbo/shuffle/exchange.h"

#include "exec/expression.h"
#include "exec/kernels.h"

namespace pixels {

Result<std::vector<RowBatchPtr>> HashPartitionTable(
    const Table& table, const FileSchema& schema,
    const std::vector<const Expr*>& key_exprs, int num_partitions) {
  if (num_partitions <= 0) {
    return Status::InvalidArgument("num_partitions must be positive");
  }
  if (key_exprs.empty()) {
    return Status::InvalidArgument("hash partitioning needs key columns");
  }
  const size_t P = static_cast<size_t>(num_partitions);
  std::vector<std::vector<ColumnVectorPtr>> cols(P);
  for (auto& part : cols) {
    for (const auto& def : schema) part.push_back(MakeVector(def.type));
  }

  std::vector<std::vector<uint32_t>> sel(P);
  for (const auto& batch : table.batches()) {
    const size_t rows = batch->num_rows();
    if (rows == 0) continue;
    if (batch->num_columns() != schema.size()) {
      return Status::Internal("partitioned batch does not match its schema");
    }
    for (size_t c = 0; c < schema.size(); ++c) {
      if (batch->name(c) != schema[c].name ||
          batch->column(c)->type() != schema[c].type) {
        return Status::Internal(
            "partitioned column " + batch->name(c) + " " +
            TypeName(batch->column(c)->type()) + " is not its plan's " +
            schema[c].name + " " + TypeName(schema[c].type));
      }
    }
    std::vector<ColumnVectorPtr> keys;
    keys.reserve(key_exprs.size());
    for (const Expr* e : key_exprs) {
      PIXELS_ASSIGN_OR_RETURN(ColumnVectorPtr key, EvaluateExpr(*e, *batch));
      keys.push_back(std::move(key));
    }
    const std::vector<uint64_t> hashes =
        HashKeyColumns(keys, rows, /*any_null=*/nullptr);
    for (auto& s : sel) s.clear();
    for (size_t r = 0; r < rows; ++r) {
      sel[hashes[r] % P].push_back(static_cast<uint32_t>(r));
    }
    for (size_t p = 0; p < P; ++p) {
      if (sel[p].empty()) continue;
      for (size_t c = 0; c < schema.size(); ++c) {
        cols[p][c]->AppendGather(*batch->column(c), sel[p]);
      }
    }
  }

  std::vector<RowBatchPtr> out(P);
  for (size_t p = 0; p < P; ++p) {
    out[p] = std::make_shared<RowBatch>();
    for (size_t c = 0; c < schema.size(); ++c) {
      out[p]->AddColumn(schema[c].name, std::move(cols[p][c]));
    }
  }
  return out;
}

Result<uint64_t> WriteExchangeObject(Storage* storage, const std::string& path,
                                     const FileSchema& schema,
                                     const std::vector<RowBatchPtr>& partitions,
                                     const WriterOptions& options) {
  PixelsWriter writer(schema, options);
  for (const auto& part : partitions) {
    PIXELS_RETURN_NOT_OK(writer.AppendRowGroup(*part));
  }
  PIXELS_RETURN_NOT_OK(writer.Finish(storage, path));
  return writer.file_bytes();
}

size_t SweepExchangePrefix(Storage* storage, const std::string& prefix) {
  if (storage == nullptr || prefix.empty()) return 0;
  auto paths = storage->List(prefix);
  if (!paths.ok()) return 0;
  size_t removed = 0;
  for (const auto& path : *paths) {
    for (int attempt = 0; attempt < 8; ++attempt) {
      if (storage->Delete(path).ok() || !storage->Exists(path)) {
        ++removed;
        break;
      }
    }
  }
  return removed;
}

}  // namespace pixels
