// SQL comparison operators: the CmpOp enum, its parser, and the mapping
// of a three-way comparison result (Value::Compare's -1/0/+1) onto an
// operator's truth value. The expression evaluator's comparison kernels
// use all three; the binder uses the parser to recognise a comparison.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

namespace pixels {

enum class CmpOp : uint8_t { kEq, kNe, kLt, kLe, kGt, kGe };

/// Parses a SQL comparison operator ("=", "<>", "<", "<=", ">", ">=").
inline std::optional<CmpOp> ParseCmpOp(const std::string& op) {
  if (op == "=") return CmpOp::kEq;
  if (op == "<>" || op == "!=") return CmpOp::kNe;
  if (op == "<") return CmpOp::kLt;
  if (op == "<=") return CmpOp::kLe;
  if (op == ">") return CmpOp::kGt;
  if (op == ">=") return CmpOp::kGe;
  return std::nullopt;
}

/// Applies `op` to a three-way comparison result (-1/0/+1).
inline bool ApplyCmp(CmpOp op, int c) {
  switch (op) {
    case CmpOp::kEq: return c == 0;
    case CmpOp::kNe: return c != 0;
    case CmpOp::kLt: return c < 0;
    case CmpOp::kLe: return c <= 0;
    case CmpOp::kGt: return c > 0;
    case CmpOp::kGe: return c >= 0;
  }
  return false;
}

}  // namespace pixels
