// PixelsWriter: buffers rows into row groups, encodes column chunks, and
// writes one .pxl object through a Storage backend.
#pragma once

#include <memory>
#include <optional>

#include "format/batch.h"
#include "format/file_format.h"
#include "storage/storage.h"

namespace pixels {

/// Writer options.
struct WriterOptions {
  /// Rows buffered per row group before a flush.
  size_t row_group_size = 65536;
  /// Forces one encoding for every chunk; unset = per-chunk heuristic.
  std::optional<Encoding> forced_encoding;
};

/// Streaming writer for one Pixels file. Usage:
///   PixelsWriter w(schema, options);
///   w.Append(batch); ...
///   w.Finish(storage, "db/table/f0.pxl");
class PixelsWriter {
 public:
  PixelsWriter(FileSchema schema, WriterOptions options = {});

  /// Appends a batch whose columns match the schema by position and type
  /// family (integer-like columns interchange; string needs string).
  Status Append(const RowBatch& batch);

  /// Appends one row of scalar values (schema order).
  Status AppendRow(const std::vector<Value>& row);

  /// Flushes any buffered rows, then encodes `batch` straight from its
  /// columns as exactly one row group, which may have zero rows. Column
  /// types must equal the schema's.
  Status AppendRowGroup(const RowBatch& batch);

  /// Encodes all buffered data and writes the complete file.
  Status Finish(Storage* storage, const std::string& path);

  /// Rows appended so far.
  uint64_t rows_appended() const { return rows_appended_; }

  /// Size of the written file (valid after Finish).
  uint64_t file_bytes() const { return body_.size(); }

 private:
  Status CheckWidth(size_t columns) const;
  Status FlushRowGroup();
  /// Encodes `cols` (schema order, equal lengths) as one row group.
  Status WriteRowGroup(const std::vector<ColumnVectorPtr>& cols);
  void ResetBuffer();

  FileSchema schema_;
  WriterOptions options_;
  std::vector<ColumnVectorPtr> buffer_;
  uint64_t rows_appended_ = 0;
  ByteWriter body_;
  FileFooter footer_;
  bool finished_ = false;
};

}  // namespace pixels
