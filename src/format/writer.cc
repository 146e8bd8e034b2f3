#include "format/writer.h"

#include "format/footer_cache.h"
#include "storage/buffer_cache.h"

namespace pixels {

void FileFooter::Serialize(ByteWriter* out) const {
  out->PutVarint(schema.size());
  for (const auto& col : schema) {
    out->PutString(col.name);
    out->PutU8(static_cast<uint8_t>(col.type));
  }
  out->PutVarint(row_groups.size());
  for (const auto& rg : row_groups) {
    out->PutVarint(rg.num_rows);
    for (const auto& chunk : rg.chunks) {
      out->PutVarint(chunk.offset);
      out->PutVarint(chunk.length);
      out->PutU8(static_cast<uint8_t>(chunk.encoding));
      chunk.stats.Serialize(out);
    }
  }
}

Result<FileFooter> FileFooter::Deserialize(ByteReader* in) {
  FileFooter footer;
  PIXELS_ASSIGN_OR_RETURN(uint64_t num_cols, in->GetVarint());
  for (uint64_t i = 0; i < num_cols; ++i) {
    ColumnDef col;
    PIXELS_ASSIGN_OR_RETURN(col.name, in->GetString());
    PIXELS_ASSIGN_OR_RETURN(uint8_t t, in->GetU8());
    if (t > static_cast<uint8_t>(TypeId::kTimestamp)) {
      return Status::Corruption("bad type tag in footer");
    }
    col.type = static_cast<TypeId>(t);
    footer.schema.push_back(std::move(col));
  }
  PIXELS_ASSIGN_OR_RETURN(uint64_t num_rgs, in->GetVarint());
  for (uint64_t g = 0; g < num_rgs; ++g) {
    RowGroupMeta rg;
    PIXELS_ASSIGN_OR_RETURN(rg.num_rows, in->GetVarint());
    for (uint64_t c = 0; c < num_cols; ++c) {
      ChunkMeta chunk;
      PIXELS_ASSIGN_OR_RETURN(chunk.offset, in->GetVarint());
      PIXELS_ASSIGN_OR_RETURN(chunk.length, in->GetVarint());
      PIXELS_ASSIGN_OR_RETURN(uint8_t e, in->GetU8());
      if (e > static_cast<uint8_t>(Encoding::kBitPacked)) {
        return Status::Corruption("bad encoding tag in footer");
      }
      chunk.encoding = static_cast<Encoding>(e);
      PIXELS_ASSIGN_OR_RETURN(chunk.stats, ColumnStats::Deserialize(in));
      rg.chunks.push_back(std::move(chunk));
    }
    footer.row_groups.push_back(std::move(rg));
  }
  return footer;
}

PixelsWriter::PixelsWriter(FileSchema schema, WriterOptions options)
    : schema_(std::move(schema)), options_(options) {
  // File body starts with the magic.
  body_.PutBytes(kPixelsMagic, sizeof(kPixelsMagic));
  ResetBuffer();
  footer_.schema = schema_;
}

void PixelsWriter::ResetBuffer() {
  buffer_.clear();
  for (const auto& col : schema_) buffer_.push_back(MakeVector(col.type));
}

Status PixelsWriter::CheckWidth(size_t columns) const {
  if (finished_) return Status::FailedPrecondition("writer already finished");
  if (columns != schema_.size()) {
    return Status::InvalidArgument(
        "batch has " + std::to_string(columns) + " columns, schema has " +
        std::to_string(schema_.size()));
  }
  return Status::OK();
}

Status PixelsWriter::Append(const RowBatch& batch) {
  PIXELS_RETURN_NOT_OK(CheckWidth(batch.num_columns()));
  for (size_t c = 0; c < schema_.size(); ++c) {
    const bool want_str = schema_[c].type == TypeId::kString;
    const bool have_str = batch.column(c)->type() == TypeId::kString;
    if (want_str != have_str) {
      return Status::TypeError("column " + schema_[c].name +
                               ": type family mismatch");
    }
  }
  const size_t n = batch.num_rows();
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < schema_.size(); ++c) {
      buffer_[c]->AppendFrom(*batch.column(c), r);
    }
    ++rows_appended_;
    if (buffer_[0]->size() >= options_.row_group_size) {
      PIXELS_RETURN_NOT_OK(FlushRowGroup());
    }
  }
  return Status::OK();
}

Status PixelsWriter::AppendRowGroup(const RowBatch& batch) {
  PIXELS_RETURN_NOT_OK(CheckWidth(batch.num_columns()));
  std::vector<ColumnVectorPtr> cols;
  for (size_t c = 0; c < schema_.size(); ++c) {
    if (batch.column(c)->type() != schema_[c].type) {
      return Status::TypeError("column " + schema_[c].name + " is " +
                               TypeName(batch.column(c)->type()) +
                               ", schema says " + TypeName(schema_[c].type));
    }
    cols.push_back(batch.column(c));
  }
  PIXELS_RETURN_NOT_OK(FlushRowGroup());
  PIXELS_RETURN_NOT_OK(WriteRowGroup(cols));
  rows_appended_ += batch.num_rows();
  return Status::OK();
}

Status PixelsWriter::AppendRow(const std::vector<Value>& row) {
  if (finished_) return Status::FailedPrecondition("writer already finished");
  if (row.size() != schema_.size()) {
    return Status::InvalidArgument("row width mismatch");
  }
  for (size_t c = 0; c < schema_.size(); ++c) {
    PIXELS_RETURN_NOT_OK(buffer_[c]->AppendValue(row[c]));
  }
  ++rows_appended_;
  if (buffer_[0]->size() >= options_.row_group_size) {
    PIXELS_RETURN_NOT_OK(FlushRowGroup());
  }
  return Status::OK();
}

Status PixelsWriter::FlushRowGroup() {
  if (buffer_.empty() || buffer_[0]->empty()) return Status::OK();
  PIXELS_RETURN_NOT_OK(WriteRowGroup(buffer_));
  ResetBuffer();
  return Status::OK();
}

Status PixelsWriter::WriteRowGroup(const std::vector<ColumnVectorPtr>& cols) {
  RowGroupMeta rg;
  rg.num_rows = cols.empty() ? 0 : cols[0]->size();
  for (size_t c = 0; c < schema_.size(); ++c) {
    ChunkMeta chunk;
    chunk.encoding = options_.forced_encoding.has_value()
                         ? *options_.forced_encoding
                         : ChooseEncoding(*cols[c]);
    if (!EncodingSupports(chunk.encoding, schema_[c].type)) {
      chunk.encoding = Encoding::kPlain;
    }
    chunk.offset = body_.size();
    chunk.stats.UpdateVector(*cols[c]);
    PIXELS_RETURN_NOT_OK(EncodeColumn(*cols[c], chunk.encoding, &body_));
    chunk.length = body_.size() - chunk.offset;
    rg.chunks.push_back(std::move(chunk));
  }
  footer_.row_groups.push_back(std::move(rg));
  return Status::OK();
}

Status PixelsWriter::Finish(Storage* storage, const std::string& path) {
  if (finished_) return Status::FailedPrecondition("writer already finished");
  PIXELS_RETURN_NOT_OK(FlushRowGroup());
  finished_ = true;
  const uint64_t footer_offset = body_.size();
  footer_.Serialize(&body_);
  body_.PutU64(footer_offset);
  body_.PutBytes(kPixelsMagic, sizeof(kPixelsMagic));
  PIXELS_RETURN_NOT_OK(storage->Write(path, body_.data()));
  // Every .pxl write in this process goes through Finish, so dropping the
  // overwritten object here keeps the footer and chunk caches coherent
  // even for same-size rewrites that size-based validation cannot catch.
  FooterCache::Shared()->Invalidate(storage, path);
  BufferCache::InvalidateAllCaches(storage, path);
  return Status::OK();
}

}  // namespace pixels
