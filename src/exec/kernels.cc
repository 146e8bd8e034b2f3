#include "exec/kernels.h"

#include "exec/expression.h"
#include "plan/optimizer.h"

namespace pixels {

namespace {

bool IsLit(const Expr& e) { return e.kind == Expr::Kind::kLiteral; }
bool IsCol(const Expr& e) { return e.kind == Expr::Kind::kColumnRef; }

}  // namespace

CompiledPredicate CompiledPredicate::Compile(const Expr& predicate) {
  CompiledPredicate p;
  std::vector<ExprPtr> residual;
  for (auto& c : SplitConjuncts(predicate)) {
    const Expr& e = *c;
    Step s;
    bool lowered = false;
    switch (e.kind) {
      case Expr::Kind::kBinary: {
        auto op = ParseCmpOp(e.op);
        if (op && e.args.size() == 2) {
          if (IsCol(*e.args[0]) && IsLit(*e.args[1])) {
            s.kind = Step::Kind::kCompare;
            s.column = e.args[0]->QualifiedName();
            s.op = *op;
            s.lit = e.args[1]->literal;
            lowered = true;
          } else if (IsLit(*e.args[0]) && IsCol(*e.args[1])) {
            s.kind = Step::Kind::kCompare;
            s.column = e.args[1]->QualifiedName();
            s.op = FlipCmpOp(*op);
            s.lit = e.args[0]->literal;
            lowered = true;
          }
          if (lowered && s.lit.is_null()) {
            p.never_matches_ = true;  // comparison with null is never true
            return p;
          }
        }
        break;
      }
      case Expr::Kind::kBetween:
        if (IsCol(*e.args[0]) && IsLit(*e.args[1]) && IsLit(*e.args[2])) {
          if (e.args[1]->literal.is_null() || e.args[2]->literal.is_null()) {
            p.never_matches_ = true;  // null bound: result is Null for all rows
            return p;
          }
          s.kind = Step::Kind::kBetween;
          s.column = e.args[0]->QualifiedName();
          s.lo = e.args[1]->literal;
          s.hi = e.args[2]->literal;
          s.negated = e.negated;
          lowered = true;
        }
        break;
      case Expr::Kind::kInList: {
        bool all_lit = IsCol(*e.args[0]);
        for (size_t i = 1; all_lit && i < e.args.size(); ++i) {
          all_lit = IsLit(*e.args[i]);
        }
        if (all_lit) {
          s.kind = Step::Kind::kInList;
          s.column = e.args[0]->QualifiedName();
          for (size_t i = 1; i < e.args.size(); ++i) {
            // Null items can never equal the probe; dropping them here
            // matches the scalar evaluator, which skips them.
            if (!e.args[i]->literal.is_null()) {
              s.in_list.push_back(e.args[i]->literal);
            }
          }
          s.negated = e.negated;
          lowered = true;
        }
        break;
      }
      case Expr::Kind::kIsNull:
        if (IsCol(*e.args[0])) {
          s.kind = Step::Kind::kIsNull;
          s.column = e.args[0]->QualifiedName();
          s.negated = e.negated;
          lowered = true;
        }
        break;
      case Expr::Kind::kColumnRef:
        s.kind = Step::Kind::kTruthy;
        s.column = e.QualifiedName();
        lowered = true;
        break;
      case Expr::Kind::kUnary:
        if (e.op == "NOT" && IsCol(*e.args[0])) {
          s.kind = Step::Kind::kTruthy;
          s.column = e.args[0]->QualifiedName();
          s.negated = true;
          lowered = true;
        }
        break;
      default:
        break;
    }
    if (lowered) {
      p.steps_.push_back(std::move(s));
    } else {
      residual.push_back(std::move(c));
    }
  }
  if (!residual.empty()) p.residual_ = CombineConjuncts(std::move(residual));
  return p;
}

Status CompiledPredicate::EvalStep(const Step& s, const RowBatch& batch,
                                   const SelectionVector* in,
                                   SelectionVector* out) const {
  int idx = batch.FindColumn(s.column);
  if (idx < 0) {
    return Status::InvalidArgument("column not found at execution: " +
                                   s.column);
  }
  const ColumnVector& col = *batch.column(static_cast<size_t>(idx));
  const uint32_t n = static_cast<uint32_t>(batch.num_rows());
  const uint8_t* ok = col.valid_data();

  // Runs `match` over the candidate rows (all rows on the first step, the
  // incoming selection afterwards) and emits survivors.
  auto drive = [&](auto&& match) {
    if (in == nullptr) {
      for (uint32_t i = 0; i < n; ++i) {
        if (match(i)) out->push_back(i);
      }
    } else {
      for (uint32_t i : *in) {
        if (match(i)) out->push_back(i);
      }
    }
  };

  switch (s.kind) {
    case Step::Kind::kCompare: {
      const TypedPredicate p = TypedPredicate::Make(col.type(), s.op, s.lit);
      switch (PayloadClassOf(col.type())) {
        case PayloadClass::kInt: {
          const int64_t* v = col.ints_data();
          drive([&](uint32_t i) { return ok[i] && p.MatchInt(v[i]); });
          break;
        }
        case PayloadClass::kDouble: {
          const double* v = col.doubles_data();
          drive([&](uint32_t i) { return ok[i] && p.MatchDouble(v[i]); });
          break;
        }
        case PayloadClass::kString: {
          const std::string* v = col.strings_data();
          drive([&](uint32_t i) { return ok[i] && p.MatchString(v[i]); });
          break;
        }
      }
      break;
    }
    case Step::Kind::kBetween: {
      const TypedPredicate ge = TypedPredicate::Make(col.type(), CmpOp::kGe, s.lo);
      const TypedPredicate le = TypedPredicate::Make(col.type(), CmpOp::kLe, s.hi);
      const bool neg = s.negated;
      switch (PayloadClassOf(col.type())) {
        case PayloadClass::kInt: {
          const int64_t* v = col.ints_data();
          drive([&](uint32_t i) {
            return ok[i] && ((ge.MatchInt(v[i]) && le.MatchInt(v[i])) != neg);
          });
          break;
        }
        case PayloadClass::kDouble: {
          const double* v = col.doubles_data();
          drive([&](uint32_t i) {
            return ok[i] &&
                   ((ge.MatchDouble(v[i]) && le.MatchDouble(v[i])) != neg);
          });
          break;
        }
        case PayloadClass::kString: {
          const std::string* v = col.strings_data();
          drive([&](uint32_t i) {
            return ok[i] &&
                   ((ge.MatchString(v[i]) && le.MatchString(v[i])) != neg);
          });
          break;
        }
      }
      break;
    }
    case Step::Kind::kInList: {
      std::vector<TypedPredicate> eqs;
      eqs.reserve(s.in_list.size());
      for (const Value& item : s.in_list) {
        eqs.push_back(TypedPredicate::Make(col.type(), CmpOp::kEq, item));
      }
      const bool neg = s.negated;
      auto any = [&](auto&& one) {
        for (const TypedPredicate& p : eqs) {
          if (one(p)) return true;
        }
        return false;
      };
      switch (PayloadClassOf(col.type())) {
        case PayloadClass::kInt: {
          const int64_t* v = col.ints_data();
          drive([&](uint32_t i) {
            return ok[i] && (any([&](const TypedPredicate& p) {
                              return p.MatchInt(v[i]);
                            }) != neg);
          });
          break;
        }
        case PayloadClass::kDouble: {
          const double* v = col.doubles_data();
          drive([&](uint32_t i) {
            return ok[i] && (any([&](const TypedPredicate& p) {
                              return p.MatchDouble(v[i]);
                            }) != neg);
          });
          break;
        }
        case PayloadClass::kString: {
          const std::string* v = col.strings_data();
          drive([&](uint32_t i) {
            return ok[i] && (any([&](const TypedPredicate& p) {
                              return p.MatchString(v[i]);
                            }) != neg);
          });
          break;
        }
      }
      break;
    }
    case Step::Kind::kIsNull: {
      const bool neg = s.negated;
      drive([&](uint32_t i) { return neg ? ok[i] != 0 : ok[i] == 0; });
      break;
    }
    case Step::Kind::kTruthy: {
      const bool neg = s.negated;
      switch (PayloadClassOf(col.type())) {
        case PayloadClass::kInt: {
          const int64_t* v = col.ints_data();
          drive([&](uint32_t i) { return ok[i] && ((v[i] != 0) != neg); });
          break;
        }
        case PayloadClass::kDouble: {
          const double* v = col.doubles_data();
          drive([&](uint32_t i) { return ok[i] && ((v[i] != 0) != neg); });
          break;
        }
        case PayloadClass::kString: {
          // Value::AsBool on a string inspects the (zero) int payload.
          drive([&](uint32_t i) { return ok[i] && neg; });
          break;
        }
      }
      break;
    }
  }
  return Status::OK();
}

Result<SelectionVector> CompiledPredicate::Select(
    const RowBatch& batch, const SelectionVector* in) const {
  SelectionVector sel;
  const size_t n = batch.num_rows();
  if (never_matches_ || n == 0 || (in != nullptr && in->empty())) return sel;
  bool have = in != nullptr;
  if (have) sel = *in;
  for (const Step& s : steps_) {
    SelectionVector next;
    PIXELS_RETURN_NOT_OK(EvalStep(s, batch, have ? &sel : nullptr, &next));
    sel = std::move(next);
    have = true;
    if (sel.empty()) return sel;
  }
  if (!have) {
    sel.resize(n);
    for (size_t i = 0; i < n; ++i) sel[i] = static_cast<uint32_t>(i);
  }
  if (residual_ != nullptr) {
    SelectionVector out;
    out.reserve(sel.size());
    for (uint32_t i : sel) {
      PIXELS_ASSIGN_OR_RETURN(Value v, EvaluateExprRow(*residual_, batch, i));
      if (!v.is_null() && v.AsBool()) out.push_back(i);
    }
    sel = std::move(out);
  }
  return sel;
}

std::vector<uint64_t> RfHashColumn(const ColumnVector& col) {
  const size_t n = col.size();
  std::vector<uint64_t> out(n, 0);
  switch (PayloadClassOf(col.type())) {
    case PayloadClass::kInt: {
      const int64_t* v = col.ints_data();
      if (col.type() == TypeId::kBool) {
        // Bool columns produce Bool-kind key values, hashed with the
        // bool tag so build and probe sides agree.
        for (size_t i = 0; i < n; ++i) out[i] = RfHashBool(v[i] != 0);
      } else {
        for (size_t i = 0; i < n; ++i) out[i] = RfHashInt(v[i]);
      }
      break;
    }
    case PayloadClass::kDouble: {
      const double* v = col.doubles_data();
      for (size_t i = 0; i < n; ++i) out[i] = RfHashDouble(v[i]);
      break;
    }
    case PayloadClass::kString: {
      const std::string* v = col.strings_data();
      for (size_t i = 0; i < n; ++i) out[i] = RfHashString(v[i]);
      break;
    }
  }
  return out;
}

namespace {

/// Fixed kind tag for a null key component: distinct from every
/// RfHash* output class in practice and identical on both sides of a
/// join/agg, so null == null for grouping.
constexpr uint64_t kNullKeyHash = 0x9ae16a3b2f90404fULL;
/// Hash of the empty key (global aggregation: zero key columns).
constexpr uint64_t kEmptyKeyHash = 0x8445d61a4e774912ULL;

/// Order-sensitive combine of per-column key hashes (boost-style mix
/// re-finalized so probe distribution stays uniform for linear probing).
inline uint64_t HashCombine(uint64_t h, uint64_t next) {
  return RfMix64(h ^ (next + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2)));
}

}  // namespace

std::vector<uint64_t> HashKeyColumns(const std::vector<ColumnVectorPtr>& cols,
                                     size_t num_rows,
                                     std::vector<uint8_t>* any_null) {
  if (any_null != nullptr) any_null->assign(num_rows, 0);
  if (cols.empty()) return std::vector<uint64_t>(num_rows, kEmptyKeyHash);
  std::vector<uint64_t> out;
  for (size_t c = 0; c < cols.size(); ++c) {
    std::vector<uint64_t> hc = RfHashColumn(*cols[c]);
    if (cols[c]->NullCount() != 0) {
      const uint8_t* ok = cols[c]->valid_data();
      for (size_t i = 0; i < num_rows; ++i) {
        if (!ok[i]) {
          hc[i] = kNullKeyHash;
          if (any_null != nullptr) (*any_null)[i] = 1;
        }
      }
    }
    if (c == 0) {
      out = std::move(hc);
    } else {
      for (size_t i = 0; i < num_rows; ++i) {
        out[i] = HashCombine(out[i], hc[i]);
      }
    }
  }
  return out;
}

bool ExprSafeToEvalUnselected(const Expr& expr) {
  switch (expr.kind) {
    case Expr::Kind::kLiteral:
    case Expr::Kind::kColumnRef:
      return true;
    case Expr::Kind::kStar:
    case Expr::Kind::kFunction:  // length()/substr() type-check per row
      return false;
    case Expr::Kind::kUnary:
      if (expr.op != "NOT" && expr.op != "-") return false;
      break;
    case Expr::Kind::kBinary:
      // LIKE rejects non-string operands per row; every other known
      // operator is total (/ and % by zero yield NULL).
      if (expr.op == "LIKE") return false;
      if (expr.op != "AND" && expr.op != "OR" && expr.op != "=" &&
          expr.op != "<>" && expr.op != "<" && expr.op != "<=" &&
          expr.op != ">" && expr.op != ">=" && expr.op != "||" &&
          expr.op != "+" && expr.op != "-" && expr.op != "*" &&
          expr.op != "/" && expr.op != "%") {
        return false;
      }
      break;
    case Expr::Kind::kBetween:
    case Expr::Kind::kInList:
    case Expr::Kind::kIsNull:
    case Expr::Kind::kCase:
      break;
  }
  for (const auto& arg : expr.args) {
    if (arg != nullptr && !ExprSafeToEvalUnselected(*arg)) return false;
  }
  return true;
}

SelectionVector BloomFilterSelect(const ColumnVector& col,
                                  const BloomFilter& bloom,
                                  const SelectionVector* sel) {
  const std::vector<uint64_t> hashes = RfHashColumn(col);
  const uint8_t* ok = col.valid_data();
  SelectionVector out;
  if (sel == nullptr) {
    const uint32_t n = static_cast<uint32_t>(col.size());
    out.reserve(n);
    for (uint32_t i = 0; i < n; ++i) {
      if (ok[i] && bloom.MayContain(hashes[i])) out.push_back(i);
    }
  } else {
    out.reserve(sel->size());
    for (uint32_t i : *sel) {
      if (ok[i] && bloom.MayContain(hashes[i])) out.push_back(i);
    }
  }
  return out;
}

}  // namespace pixels
