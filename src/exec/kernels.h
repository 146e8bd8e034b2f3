// Selection and hashing kernels: flat, auto-vectorizable loops over the
// typed payload arrays of ColumnVector, producing reusable selection
// vectors and key hashes with no per-row Value boxing. Every expression
// value, filter predicates included, comes from the single evaluator,
// EvaluateExpr in exec/expression.h, which runs its own column kernels;
// TruthSelect turns a predicate's column into a selection.
#pragma once

#include <vector>

#include "exec/bloom_filter.h"
#include "format/batch.h"

namespace pixels {

/// Hashes every non-null row of a key column with the kind-tagged
/// runtime-filter hash (flat per-type loops). Null rows get hash 0 and
/// must be masked by the caller via the validity mask.
std::vector<uint64_t> RfHashColumn(const ColumnVector& col);

/// Batch hash kernel for join/agg keys: hashes row `i` of all `cols`
/// into one 64-bit hash (kind-tagged per-column hashes from
/// bloom_filter.h, order-sensitive multi-key combine), so equal keys in
/// ValuesKey semantics always hash equal. Null components hash to a
/// fixed tag (nulls form aggregation groups); when `any_null` is
/// non-null it is set to 1 for rows with any null component so join
/// builds/probes can skip them (nulls never join). `num_rows` covers the
/// zero-key case (global aggregation): every row hashes identically.
std::vector<uint64_t> HashKeyColumns(const std::vector<ColumnVectorPtr>& cols,
                                     size_t num_rows,
                                     std::vector<uint8_t>* any_null);

/// Keeps the rows of `sel` (or all rows when `sel` is null) whose key is
/// non-null and may be in the bloom filter. Nulls never pass: runtime
/// filters apply only to inner-join probe sides, where null keys cannot
/// join.
SelectionVector BloomFilterSelect(const ColumnVector& col,
                                  const BloomFilter& bloom,
                                  const SelectionVector* sel);

/// Keeps the rows of `sel` (or all rows when `sel` is null) where `col`
/// is non-null and true under Value::AsBool: a non-zero number, never a
/// string. FilterOperator's selection over its predicate's EvaluateExpr
/// column (SQL semantics: null is not true).
SelectionVector TruthSelect(const ColumnVector& col,
                            const SelectionVector* sel);

}  // namespace pixels
