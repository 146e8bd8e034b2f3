#include "exec/expression.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <optional>
#include <string_view>
#include <type_traits>

#include "common/int_arith.h"
#include "format/compare.h"

namespace pixels {

bool LikeMatch(const std::string& text, const std::string& pattern) {
  size_t t = 0, p = 0, star_p = std::string::npos, star_t = 0;
  while (t < text.size()) {
    if (p < pattern.size() && (pattern[p] == '_' || pattern[p] == text[t])) {
      ++t;
      ++p;
    } else if (p < pattern.size() && pattern[p] == '%') {
      star_p = p++;
      star_t = t;
    } else if (star_p != std::string::npos) {
      p = star_p + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '%') ++p;
  return p == pattern.size();
}

namespace {

// ---- column kernels ----

/// The payload class a scalar's value is stored in.
PayloadClass ValueClass(const Value& v) {
  if (v.kind == Value::Kind::kDouble) return PayloadClass::kDouble;
  if (v.kind == Value::Kind::kString) return PayloadClass::kString;
  return PayloadClass::kInt;  // ints and bools share the int payload
}

/// A kernel operand: a column vector, or, when `vec` is null, one scalar
/// (a literal or a folded constant) standing for every row.
struct Col {
  ColumnVectorPtr vec;
  Value scalar;

  /// NULL on every row. Only such an operand may have a class other than
  /// the one its kernel reads (the binder lets an all-NULL argument fit
  /// any signature).
  bool all_null() const {
    return vec != nullptr ? vec->NullCount() == vec->size() : scalar.is_null();
  }
  PayloadClass cls() const {
    return vec != nullptr ? PayloadClassOf(vec->type()) : ValueClass(scalar);
  }
};

Col ScalarCol(Value v) {
  Col c;
  c.scalar = std::move(v);
  return c;
}

Col VectorCol(ColumnVectorPtr v) {
  v->RecountNulls();
  Col c;
  c.vec = std::move(v);
  return c;
}

/// A shape the binder does not accept, or operands that disagree with
/// their bound types: there is no other evaluator to hand it to.
Status NoKernel(const Expr& e) {
  return Status::Internal("no column kernel for " + e.ToString());
}

/// A computed node without a bound type: a rewrite built it untyped.
Status Untyped(const Expr& e) {
  return Status::Internal("expression has no bound type: " + e.ToString());
}

/// `n` null rows with zeroed payload; kernels overwrite rows by index.
ColumnVectorPtr NewVector(TypeId type, size_t n) {
  auto v = MakeVector(type);
  v->Resize(n);
  return v;
}

template <typename T>
const T* Data(const ColumnVector& v) {
  if constexpr (std::is_same_v<T, double>) {
    return v.doubles_data();
  } else if constexpr (std::is_same_v<T, std::string>) {
    return v.strings_data();
  } else {
    return v.ints_data();
  }
}

template <typename T>
const T* Data(const Value& v) {
  if constexpr (std::is_same_v<T, double>) {
    return &v.d;
  } else if constexpr (std::is_same_v<T, std::string>) {
    return &v.s;
  } else {
    return &v.i;
  }
}

template <typename T>
T* MutableData(ColumnVector& v) {
  if constexpr (std::is_same_v<T, double>) {
    return v.mutable_doubles_data();
  } else if constexpr (std::is_same_v<T, std::string>) {
    return v.mutable_strings_data();
  } else {
    return v.mutable_ints_data();
  }
}

/// Row readers over a vector's payload or one scalar, so every kernel
/// loop is written once and instantiated flat for each operand shape.
template <typename T>
struct VecRead {
  const T* p;
  const T& operator()(size_t i) const { return p[i]; }
};

template <typename T>
struct ConstRead {
  const T* p;
  const T& operator()(size_t) const { return *p; }
};

template <typename T, typename Fn>
void Read(const Col& c, Fn&& fn) {
  if (c.vec != nullptr) {
    fn(VecRead<T>{Data<T>(*c.vec)});
  } else {
    fn(ConstRead<T>{Data<T>(c.scalar)});
  }
}

/// Reads an int- or double-class operand with its own payload type.
template <typename Fn>
void ReadNum(const Col& c, Fn&& fn) {
  if (c.cls() == PayloadClass::kDouble) {
    Read<double>(c, fn);
  } else {
    Read<int64_t>(c, fn);
  }
}

/// ok[i] = row i of `c` is non-null.
void ValidInto(const Col& c, uint8_t* ok, size_t n) {
  if (c.vec != nullptr) {
    std::copy_n(c.vec->valid_data(), n, ok);
  } else {
    std::fill_n(ok, n, static_cast<uint8_t>(!c.scalar.is_null()));
  }
}

/// ok[i] &= row i of `c` is non-null.
void AndValid(const Col& c, uint8_t* ok, size_t n) {
  if (c.vec != nullptr) {
    const uint8_t* v = c.vec->valid_data();
    for (size_t i = 0; i < n; ++i) ok[i] &= v[i];
  } else if (c.scalar.is_null()) {
    std::fill_n(ok, n, uint8_t{0});
  }
}

/// t[i] = Value::AsBool of row i; null rows read their zero payload.
void TruthInto(const Col& c, uint8_t* t, size_t n) {
  switch (c.cls()) {
    case PayloadClass::kString:
      std::fill_n(t, n, uint8_t{0});  // AsBool reads a string's zero int
      return;
    case PayloadClass::kDouble:
      Read<double>(c, [&](auto r) {
        for (size_t i = 0; i < n; ++i) t[i] = r(i) != 0;
      });
      return;
    case PayloadClass::kInt:
      Read<int64_t>(c, [&](auto r) {
        for (size_t i = 0; i < n; ++i) t[i] = r(i) != 0;
      });
      return;
  }
}

/// A Bool-valued result; Value::Bool rows build int64 vectors.
struct BoolOut {
  explicit BoolOut(size_t n)
      : vec(NewVector(TypeId::kInt64, n)),
        ok(vec->mutable_valid_data()),
        v(vec->mutable_ints_data()) {}
  Col Done() { return VectorCol(std::move(vec)); }

  ColumnVectorPtr vec;
  uint8_t* ok;
  int64_t* v;
};

/// m[i] = (a_i op b_i) for numbers. Written with `<` only so NaN orders
/// as in Value::Compare (neither less nor greater, hence equal); int/double
/// pairs widen to double and int/int compares exactly, as there.
template <typename RA, typename RB>
void CmpLoop(CmpOp op, RA a, RB b, uint8_t* m, size_t n) {
  switch (op) {
    case CmpOp::kEq:
      for (size_t i = 0; i < n; ++i) m[i] = !(a(i) < b(i)) && !(b(i) < a(i));
      break;
    case CmpOp::kNe:
      for (size_t i = 0; i < n; ++i) m[i] = (a(i) < b(i)) || (b(i) < a(i));
      break;
    case CmpOp::kLt:
      for (size_t i = 0; i < n; ++i) m[i] = a(i) < b(i);
      break;
    case CmpOp::kLe:
      for (size_t i = 0; i < n; ++i) m[i] = !(b(i) < a(i));
      break;
    case CmpOp::kGt:
      for (size_t i = 0; i < n; ++i) m[i] = b(i) < a(i);
      break;
    case CmpOp::kGe:
      for (size_t i = 0; i < n; ++i) m[i] = !(a(i) < b(i));
      break;
  }
}

/// m[i] = Value::Compare(a_i, b_i) satisfies `op`, ignoring nullness.
void CmpInto(CmpOp op, const Col& a, const Col& b, uint8_t* m, size_t n) {
  const bool a_str = a.cls() == PayloadClass::kString;
  const bool b_str = b.cls() == PayloadClass::kString;
  if (a_str != b_str) {
    // Numerics order before strings whatever the values.
    std::fill_n(m, n, static_cast<uint8_t>(ApplyCmp(op, a_str ? 1 : -1)));
  } else if (a_str) {
    Read<std::string>(a, [&](auto ra) {
      Read<std::string>(b, [&](auto rb) {
        if (op == CmpOp::kEq || op == CmpOp::kNe) {
          const bool ne = op == CmpOp::kNe;
          for (size_t i = 0; i < n; ++i) m[i] = (ra(i) == rb(i)) != ne;
        } else {
          for (size_t i = 0; i < n; ++i) {
            m[i] = ApplyCmp(op, ra(i).compare(rb(i)));
          }
        }
      });
    });
  } else {
    ReadNum(a, [&](auto ra) {
      ReadNum(b, [&](auto rb) { CmpLoop(op, ra, rb, m, n); });
    });
  }
}

Col Compare(CmpOp op, const Col& a, const Col& b, size_t n) {
  BoolOut out(n);
  std::vector<uint8_t> m(n);
  CmpInto(op, a, b, m.data(), n);
  ValidInto(a, out.ok, n);
  AndValid(b, out.ok, n);
  for (size_t i = 0; i < n; ++i) out.v[i] = out.ok[i] & m[i];
  return out.Done();
}

/// Int-result arithmetic. Only `%` sees double operands here, and reads
/// them through Value::AsInt's truncation. A zero divisor yields NULL.
template <typename RA, typename RB>
void IntArith(char op, RA a, RB b, uint8_t* ok, int64_t* v, size_t n) {
  auto x = [&](size_t i) { return static_cast<int64_t>(a(i)); };
  auto y = [&](size_t i) { return static_cast<int64_t>(b(i)); };
  switch (op) {
    case '+':
      for (size_t i = 0; i < n; ++i) v[i] = ok[i] ? WrapAdd(x(i), y(i)) : 0;
      return;
    case '-':
      for (size_t i = 0; i < n; ++i) v[i] = ok[i] ? WrapSub(x(i), y(i)) : 0;
      return;
    case '*':
      for (size_t i = 0; i < n; ++i) v[i] = ok[i] ? WrapMul(x(i), y(i)) : 0;
      return;
    default:  // '/' and '%'
      for (size_t i = 0; i < n; ++i) {
        const int64_t d = y(i);
        if (!ok[i] || d == 0) {
          ok[i] = 0;
          v[i] = 0;
        } else {
          v[i] = op == '/' ? WrapDiv(x(i), d) : WrapMod(x(i), d);
        }
      }
      return;
  }
}

template <typename RA, typename RB>
void DoubleArith(char op, RA a, RB b, uint8_t* ok, double* v, size_t n) {
  auto x = [&](size_t i) { return static_cast<double>(a(i)); };
  auto y = [&](size_t i) { return static_cast<double>(b(i)); };
  switch (op) {
    case '+':
      for (size_t i = 0; i < n; ++i) v[i] = ok[i] ? x(i) + y(i) : 0.0;
      return;
    case '-':
      for (size_t i = 0; i < n; ++i) v[i] = ok[i] ? x(i) - y(i) : 0.0;
      return;
    case '*':
      for (size_t i = 0; i < n; ++i) v[i] = ok[i] ? x(i) * y(i) : 0.0;
      return;
    default:  // '/'
      for (size_t i = 0; i < n; ++i) {
        const double d = y(i);
        if (!ok[i] || d == 0) {
          ok[i] = 0;
          v[i] = 0.0;
        } else {
          v[i] = x(i) / d;
        }
      }
      return;
  }
}

Col Arith(char op, const Col& a, const Col& b, TypeId type, size_t n) {
  const bool dbl = type == TypeId::kDouble;
  auto out = NewVector(type, n);
  uint8_t* ok = out->mutable_valid_data();
  ValidInto(a, ok, n);
  AndValid(b, ok, n);
  ReadNum(a, [&](auto ra) {
    ReadNum(b, [&](auto rb) {
      if (dbl) {
        DoubleArith(op, ra, rb, ok, out->mutable_doubles_data(), n);
      } else {
        IntArith(op, ra, rb, ok, out->mutable_ints_data(), n);
      }
    });
  });
  return VectorCol(std::move(out));
}

/// out row i = f(row i of `a`) in `type` (unary `-` and abs): f maps a
/// double to a double when `type` is kDouble, else an int64 to an int64.
template <typename F>
Col MapNumber(const Col& a, TypeId type, size_t n, F&& f) {
  auto out = NewVector(type, n);
  uint8_t* ok = out->mutable_valid_data();
  ValidInto(a, ok, n);
  ReadNum(a, [&](auto x) {
    if (type == TypeId::kDouble) {
      double* v = out->mutable_doubles_data();
      for (size_t i = 0; i < n; ++i) {
        v[i] = ok[i] ? f(static_cast<double>(x(i))) : 0.0;
      }
    } else {
      int64_t* v = out->mutable_ints_data();
      for (size_t i = 0; i < n; ++i) {
        v[i] = ok[i] ? f(static_cast<int64_t>(x(i))) : 0;
      }
    }
  });
  return VectorCol(std::move(out));
}

Col Negate(const Col& a, TypeId type, size_t n) {
  return MapNumber(a, type, n, [](auto x) -> decltype(x) {
    if constexpr (std::is_same_v<decltype(x), double>) {
      return -x;
    } else {
      return WrapSub(0, x);
    }
  });
}

Col Not(const Col& a, size_t n) {
  BoolOut out(n);
  std::vector<uint8_t> t(n);
  ValidInto(a, out.ok, n);
  TruthInto(a, t.data(), n);
  for (size_t i = 0; i < n; ++i) out.v[i] = out.ok[i] & !t[i];
  return out.Done();
}

/// Kleene AND/OR. Both sides are evaluated for every row: no kernel
/// fails on a row, so a row-at-a-time short-circuit would only skip work.
Col AndOr(bool is_and, const Col& a, const Col& b, size_t n) {
  std::vector<uint8_t> aok(n), at(n), bok(n), bt(n);
  ValidInto(a, aok.data(), n);
  TruthInto(a, at.data(), n);
  ValidInto(b, bok.data(), n);
  TruthInto(b, bt.data(), n);
  BoolOut out(n);
  for (size_t i = 0; i < n; ++i) {
    const uint8_t a1 = aok[i] & at[i], b1 = bok[i] & bt[i];
    const uint8_t a0 = aok[i] & !at[i], b0 = bok[i] & !bt[i];
    if (is_and) {
      out.v[i] = a1 & b1;
      out.ok[i] = (a1 & b1) | a0 | b0;  // one false side decides
    } else {
      out.v[i] = a1 | b1;
      out.ok[i] = a1 | b1 | (a0 & b0);  // one true side decides
    }
  }
  return out.Done();
}

Col IsNullCol(const Col& a, bool negated, size_t n) {
  BoolOut out(n);
  std::vector<uint8_t> valid(n);
  ValidInto(a, valid.data(), n);
  for (size_t i = 0; i < n; ++i) {
    out.ok[i] = 1;
    out.v[i] = valid[i] ^ static_cast<uint8_t>(!negated);
  }
  return out.Done();
}

Col Between(const Col& v, const Col& lo, const Col& hi, bool negated,
            size_t n) {
  std::vector<uint8_t> ge(n), le(n);
  CmpInto(CmpOp::kGe, v, lo, ge.data(), n);
  CmpInto(CmpOp::kLe, v, hi, le.data(), n);
  BoolOut out(n);
  ValidInto(v, out.ok, n);
  AndValid(lo, out.ok, n);
  AndValid(hi, out.ok, n);
  const uint8_t neg = negated;
  for (size_t i = 0; i < n; ++i) out.v[i] = out.ok[i] & ((ge[i] & le[i]) ^ neg);
  return out.Done();
}

/// args[0] IN (args[1..]): null items never match; a null probe is NULL.
Col InList(const std::vector<Col>& args, bool negated, size_t n) {
  const Col& v = args[0];
  std::vector<uint8_t> found(n, 0), eq(n), item_ok(n);
  for (size_t k = 1; k < args.size(); ++k) {
    CmpInto(CmpOp::kEq, v, args[k], eq.data(), n);
    ValidInto(args[k], item_ok.data(), n);
    for (size_t i = 0; i < n; ++i) found[i] |= item_ok[i] & eq[i];
  }
  BoolOut out(n);
  ValidInto(v, out.ok, n);
  const uint8_t neg = negated;
  for (size_t i = 0; i < n; ++i) out.v[i] = out.ok[i] & (found[i] ^ neg);
  return out.Done();
}

/// A LIKE pattern with no `_` and `%` only at its ends is a plain string
/// test; anything else runs LikeMatch per row.
struct LikeShape {
  enum class Kind : uint8_t { kExact, kPrefix, kSuffix, kContains, kGeneral };
  Kind kind;
  std::string_view lit;
};

LikeShape ClassifyLike(std::string_view p) {
  const bool lead = !p.empty() && p.front() == '%';
  if (lead) p.remove_prefix(1);
  const bool trail = !p.empty() && p.back() == '%';
  if (trail) p.remove_suffix(1);
  if (p.find_first_of("%_") != std::string_view::npos) {
    return {LikeShape::Kind::kGeneral, p};
  }
  if (lead && trail) return {LikeShape::Kind::kContains, p};
  if (lead) return {LikeShape::Kind::kSuffix, p};
  if (trail) return {LikeShape::Kind::kPrefix, p};
  return {LikeShape::Kind::kExact, p};
}

/// Row-indexed reads of an operand in Value's views (AsInt, AsDouble,
/// the string), a scalar standing for every row (step 0): the one-row
/// reader of the kernels whose per-row work (a string, a parse, a
/// pattern) outweighs the branch.
struct Rows {
  explicit Rows(const Col& c)
      : step(c.vec != nullptr ? 1 : 0),
        dbl(c.cls() == PayloadClass::kDouble),
        ints(c.vec != nullptr ? c.vec->ints_data() : &c.scalar.i),
        doubles(c.vec != nullptr ? c.vec->doubles_data() : &c.scalar.d),
        strings(c.vec != nullptr ? c.vec->strings_data() : &c.scalar.s) {}

  int64_t AsInt(size_t i) const {
    return dbl ? static_cast<int64_t>(doubles[i * step]) : ints[i * step];
  }
  double AsDouble(size_t i) const {
    return dbl ? doubles[i * step] : static_cast<double>(ints[i * step]);
  }
  const std::string& Str(size_t i) const { return strings[i * step]; }

  size_t step;
  bool dbl;
  const int64_t* ints;
  const double* doubles;
  const std::string* strings;
};

/// `text LIKE pattern` over strings. A column against one pattern with
/// no `_` and `%` only at its ends is a plain string test; any other
/// shape runs LikeMatch per row.
Col Like(const Col& a, const Col& pattern, size_t n) {
  BoolOut out(n);
  ValidInto(a, out.ok, n);
  AndValid(pattern, out.ok, n);
  if (a.vec == nullptr || pattern.vec != nullptr) {
    const Rows text(a), pat(pattern);
    for (size_t i = 0; i < n; ++i) {
      out.v[i] = out.ok[i] && LikeMatch(text.Str(i), pat.Str(i));
    }
    return out.Done();
  }
  const std::string& pat = pattern.scalar.s;
  const LikeShape shape = ClassifyLike(pat);
  const std::string* s = a.vec->strings_data();
  auto drive = [&](auto&& match) {
    for (size_t i = 0; i < n; ++i) out.v[i] = out.ok[i] && match(s[i]);
  };
  switch (shape.kind) {
    case LikeShape::Kind::kExact:
      drive([&](std::string_view x) { return x == shape.lit; });
      break;
    case LikeShape::Kind::kPrefix:
      drive([&](std::string_view x) { return x.starts_with(shape.lit); });
      break;
    case LikeShape::Kind::kSuffix:
      drive([&](std::string_view x) { return x.ends_with(shape.lit); });
      break;
    case LikeShape::Kind::kContains:
      drive([&](std::string_view x) {
        return x.find(shape.lit) != std::string_view::npos;
      });
      break;
    case LikeShape::Kind::kGeneral:
      drive([&](const std::string& x) { return LikeMatch(x, pat); });
      break;
  }
  return out.Done();
}

/// out row i = row i of branches[br[i]], in one branch-free pass: each
/// branch is a (values, validity, step) triple, step 0 for a scalar or a
/// branch that is NULL on every row. Int branches widen when T is double;
/// Pick checks every other branch holds T or is all NULL.
template <typename T>
void TakeBranches(const std::vector<const Col*>& branches, const uint32_t* br,
                  ColumnVector* out) {
  static constexpr uint8_t kValid = 1, kNull = 0;
  const size_t nb = branches.size();
  const size_t n = out->size();
  const PayloadClass cls = PayloadClassOf(out->type());
  std::vector<T> consts(nb);
  std::vector<std::vector<T>> widened(nb);
  std::vector<const T*> vals(nb);
  std::vector<const uint8_t*> oks(nb);
  std::vector<size_t> steps(nb, 0);
  for (size_t b = 0; b < nb; ++b) {
    const Col& c = *branches[b];
    vals[b] = &consts[b];
    oks[b] = &kNull;
    const bool widen =
        cls == PayloadClass::kDouble && c.cls() == PayloadClass::kInt;
    if (c.all_null()) continue;
    if (c.vec == nullptr) {
      if constexpr (std::is_same_v<T, double>) {
        consts[b] = c.scalar.AsDouble();
      } else {
        consts[b] = *Data<T>(c.scalar);
      }
      oks[b] = &kValid;
      continue;
    }
    steps[b] = 1;
    oks[b] = c.vec->valid_data();
    vals[b] = Data<T>(*c.vec);
    if constexpr (std::is_same_v<T, double>) {
      if (widen) {
        const int64_t* x = c.vec->ints_data();
        widened[b].assign(x, x + n);
        vals[b] = widened[b].data();
      }
    }
  }
  uint8_t* ok = out->mutable_valid_data();
  T* v = MutableData<T>(*out);
  for (size_t i = 0; i < n; ++i) {
    const size_t b = br[i];
    const size_t j = i * steps[b];
    ok[i] = oks[b][j];
    if constexpr (std::is_same_v<T, std::string>) {
      if (ok[i]) v[i] = vals[b][j];
    } else {
      const T x = vals[b][j];
      v[i] = ok[i] ? x : T{};
    }
  }
}

/// Row i takes row i of branches[br[i]], as a value of `e`'s bound type
/// (CASE and coalesce).
Result<Col> Pick(const Expr& e, const std::vector<const Col*>& branches,
                 const std::vector<uint32_t>& br, size_t n) {
  const PayloadClass out_cls = PayloadClassOf(*e.type);
  for (const Col* c : branches) {
    const bool widen =
        out_cls == PayloadClass::kDouble && c->cls() == PayloadClass::kInt;
    if (c->cls() != out_cls && !widen && !c->all_null()) return NoKernel(e);
  }
  auto out = NewVector(*e.type, n);
  switch (out_cls) {
    case PayloadClass::kInt:
      TakeBranches<int64_t>(branches, br.data(), out.get());
      break;
    case PayloadClass::kDouble:
      TakeBranches<double>(branches, br.data(), out.get());
      break;
    case PayloadClass::kString:
      TakeBranches<std::string>(branches, br.data(), out.get());
      break;
  }
  return VectorCol(std::move(out));
}

/// Searched CASE. Every condition and branch is evaluated for every row;
/// each row then takes its first true branch.
Result<Col> Case(const Expr& e, const std::vector<Col>& args, size_t n) {
  const size_t pairs = (args.size() - (e.has_else ? 1 : 0)) / 2;
  // Branch k < pairs is THEN k; branch `pairs` is ELSE (NULL without one).
  const Col null_else;
  std::vector<const Col*> branches;
  for (size_t k = 0; k < pairs; ++k) branches.push_back(&args[2 * k + 1]);
  branches.push_back(e.has_else ? &args.back() : &null_else);
  std::vector<uint32_t> br(n, static_cast<uint32_t>(pairs));
  std::vector<uint8_t> ok(n), t(n);
  for (size_t k = pairs; k-- > 0;) {
    ValidInto(args[2 * k], ok.data(), n);
    TruthInto(args[2 * k], t.data(), n);
    const uint32_t id = static_cast<uint32_t>(k);
    for (size_t i = 0; i < n; ++i) br[i] = (ok[i] & t[i]) ? id : br[i];
  }
  return Pick(e, branches, br, n);
}

/// coalesce: each row takes its first non-NULL argument.
Result<Col> Coalesce(const Expr& e, const std::vector<Col>& args, size_t n) {
  const Col null_tail;
  std::vector<const Col*> branches;
  for (const Col& a : args) branches.push_back(&a);
  branches.push_back(&null_tail);
  std::vector<uint32_t> br(n, static_cast<uint32_t>(args.size()));
  std::vector<uint8_t> ok(n);
  for (size_t k = args.size(); k-- > 0;) {
    ValidInto(args[k], ok.data(), n);
    const uint32_t id = static_cast<uint32_t>(k);
    for (size_t i = 0; i < n; ++i) br[i] = ok[i] ? id : br[i];
  }
  return Pick(e, branches, br, n);
}

// ---- scalar functions ----

/// A null-propagating function's output of `type`: row i is NULL when any
/// of `args` is; otherwise set(i, v) writes the value into v, or returns
/// false for a NULL result.
template <typename T, typename Set>
Col MapRows(TypeId type, const std::vector<Col>& args, size_t n, Set&& set) {
  auto out = NewVector(type, n);
  uint8_t* ok = out->mutable_valid_data();
  std::fill_n(ok, n, uint8_t{1});
  for (const Col& a : args) AndValid(a, ok, n);
  T* v = MutableData<T>(*out);
  for (size_t i = 0; i < n; ++i) {
    if (ok[i] && !set(i, v[i])) {
      ok[i] = 0;
      v[i] = T{};
    }
  }
  return VectorCol(std::move(out));
}

/// Row i of an operand as text, by its bound type: a string as it is, a
/// kBool as true/false, a double as %.6g, any other number in decimal.
/// (A comparison is bound kInt64, so it prints 1/0.)
std::string TextAt(const Rows& r, TypeId type, size_t i) {
  switch (type) {
    case TypeId::kString:
      return r.Str(i);
    case TypeId::kDouble:
      return Value::Double(r.AsDouble(i)).ToString();
    case TypeId::kBool:
      return r.AsInt(i) != 0 ? "true" : "false";
    default:
      return std::to_string(r.AsInt(i));
  }
}

/// concat, `||` and CAST(… AS varchar): the arguments' text, joined.
Col Concat(const Expr& e, const std::vector<Col>& args, size_t n) {
  std::vector<Rows> rows(args.begin(), args.end());
  return MapRows<std::string>(
      TypeId::kString, args, n, [&](size_t i, std::string& v) {
        for (size_t k = 0; k < rows.size(); ++k) {
          v += TextAt(rows[k], *e.args[k]->type, i);
        }
        return true;
      });
}

/// substr(s, start[, len]): `start` is 1-based and clamps to 1; past the
/// end, or with a negative length, the result is ''.
Col Substr(const std::vector<Col>& args, size_t n) {
  const Rows s(args[0]), start(args[1]), len(args.back());
  const bool has_len = args.size() == 3;
  return MapRows<std::string>(
      TypeId::kString, args, n, [&](size_t i, std::string& v) {
        const std::string& text = s.Str(i);
        const int64_t from = std::max<int64_t>(start.AsInt(i), 1);
        if (static_cast<uint64_t>(from) > text.size()) return true;
        const size_t count =
            has_len ? static_cast<size_t>(std::max<int64_t>(len.AsInt(i), 0))
                    : std::string::npos;
        v = text.substr(static_cast<size_t>(from - 1), count);
        return true;
      });
}

/// lower/upper, byte by byte in the C locale.
Col MapCase(bool upper, const std::vector<Col>& args, size_t n) {
  const Rows s(args[0]);
  return MapRows<std::string>(
      TypeId::kString, args, n, [&](size_t i, std::string& v) {
        v = s.Str(i);
        for (char& c : v) {
          const auto u = static_cast<unsigned char>(c);
          c = static_cast<char>(upper ? std::toupper(u) : std::tolower(u));
        }
        return true;
      });
}

/// A double-valued function of one number (floor, ceil, sqrt, round);
/// `f` may return nullopt for NULL.
template <typename F>
Col MapDouble(const std::vector<Col>& args, size_t n, F&& f) {
  const Rows x(args[0]);
  return MapRows<double>(TypeId::kDouble, args, n, [&](size_t i, double& v) {
    const std::optional<double> r = f(x.AsDouble(i), i);
    v = r.value_or(0.0);
    return r.has_value();
  });
}

/// year/month/day of a day count (the int payload; a double truncates).
template <int32_t CivilDate::*Field>
Col DatePart(const std::vector<Col>& args, size_t n) {
  const Rows x(args[0]);
  return MapRows<int64_t>(TypeId::kInt64, args, n, [&](size_t i, int64_t& v) {
    v = CivilFromDays(static_cast<int32_t>(x.AsInt(i))).*Field;
    return true;
  });
}

/// CAST(… AS int/bigint/double): a number converts as AsInt/AsDouble; a
/// string parses a leading number (strtoll/strtod), NULL when none.
template <typename T>
Col CastNumber(const std::vector<Col>& args, size_t n) {
  constexpr bool kDouble = std::is_same_v<T, double>;
  const Rows x(args[0]);
  const bool parse = args[0].cls() == PayloadClass::kString;
  return MapRows<T>(kDouble ? TypeId::kDouble : TypeId::kInt64, args, n,
                    [&](size_t i, T& v) {
                      const char* text = parse ? x.Str(i).c_str() : nullptr;
                      char* end = nullptr;
                      if constexpr (kDouble) {
                        v = parse ? std::strtod(text, &end) : x.AsDouble(i);
                      } else {
                        v = parse ? std::strtoll(text, &end, 10) : x.AsInt(i);
                      }
                      return !parse || end != text;
                    });
}

Result<Col> Function(const Expr& e, const std::vector<Col>& args, size_t n) {
  const std::string& f = e.name;
  if (f == "coalesce") return Coalesce(e, args, n);
  if (f == "concat" || f == "cast_varchar" || f == "cast_string") {
    return Concat(e, args, n);
  }
  if (args.empty()) return NoKernel(e);
  if (f == "cast_int" || f == "cast_integer" || f == "cast_bigint") {
    return CastNumber<int64_t>(args, n);
  }
  if (f == "cast_double") return CastNumber<double>(args, n);
  if (f == "length") {
    const Rows s(args[0]);
    return MapRows<int64_t>(TypeId::kInt64, args, n,
                            [&](size_t i, int64_t& v) {
                              v = static_cast<int64_t>(s.Str(i).size());
                              return true;
                            });
  }
  if (f == "lower" || f == "upper") return MapCase(f == "upper", args, n);
  if (f == "substr" || f == "substring") {
    if (args.size() < 2) return NoKernel(e);
    return Substr(args, n);
  }
  if (f == "abs") {
    return MapNumber(args[0], *e.type, n, [](auto x) -> decltype(x) {
      if constexpr (std::is_same_v<decltype(x), double>) {
        return std::fabs(x);
      } else {
        return x < 0 ? WrapSub(0, x) : x;
      }
    });
  }
  if (f == "floor") {
    return MapDouble(args, n, [](double x, size_t) { return std::floor(x); });
  }
  if (f == "ceil" || f == "ceiling") {
    return MapDouble(args, n, [](double x, size_t) { return std::ceil(x); });
  }
  if (f == "sqrt") {
    return MapDouble(args, n, [](double x, size_t) -> std::optional<double> {
      if (x < 0) return std::nullopt;
      return std::sqrt(x);
    });
  }
  if (f == "round") {
    const Rows digits(args.back());
    const bool has_digits = args.size() == 2;
    return MapDouble(args, n, [&](double x, size_t i) {
      const double scale = has_digits ? std::pow(10.0, digits.AsDouble(i)) : 1.0;
      return std::round(x * scale) / scale;
    });
  }
  if (f == "year") return DatePart<&CivilDate::year>(args, n);
  if (f == "month") return DatePart<&CivilDate::month>(args, n);
  if (f == "day") return DatePart<&CivilDate::day>(args, n);
  return NoKernel(e);  // aggregates, unknown names
}

/// The batch's column `e` names.
Result<ColumnVectorPtr> FindColumn(const Expr& e, const RowBatch& batch) {
  const int idx = batch.FindColumn(e.QualifiedName());
  if (idx < 0) {
    return Status::InvalidArgument("column not found at execution: " +
                                   e.QualifiedName());
  }
  return batch.column(static_cast<size_t>(idx));
}

Result<Col> ColumnCol(const Expr& e, const RowBatch& batch) {
  PIXELS_ASSIGN_OR_RETURN(ColumnVectorPtr col, FindColumn(e, batch));
  if (col->type() != TypeId::kBool) return Col{col, Value()};
  // Bool rows read back as Value::Bool: 0/1 whatever the stored payload.
  const size_t n = col->size();
  auto out = NewVector(TypeId::kInt64, n);
  std::copy_n(col->valid_data(), n, out->mutable_valid_data());
  const uint8_t* ok = col->valid_data();
  const int64_t* x = col->ints_data();
  int64_t* v = out->mutable_ints_data();
  for (size_t i = 0; i < n; ++i) v[i] = ok[i] && x[i] != 0;
  return VectorCol(std::move(out));
}

Result<Col> Binary(const Expr& e, const std::vector<Col>& args, size_t n) {
  const std::string& op = e.op;
  const Col& a = args[0];
  const Col& b = args[1];
  if (op == "AND" || op == "OR") return AndOr(op == "AND", a, b, n);
  if (op == "||") return Concat(e, args, n);
  if (op == "LIKE") return Like(a, b, n);
  if (op == "+" || op == "-" || op == "*" || op == "/" || op == "%") {
    return Arith(op[0], a, b, *e.type, n);
  }
  const std::optional<CmpOp> cmp = ParseCmpOp(op);
  if (!cmp) return NoKernel(e);
  return Compare(*cmp, a, b, n);
}

/// The kernel of computed node `e` over its evaluated arguments.
Result<Col> Node(const Expr& e, const std::vector<Col>& args, size_t n) {
  switch (e.kind) {
    case Expr::Kind::kUnary:
      if (e.op == "NOT") return Not(args[0], n);
      if (e.op == "-") return Negate(args[0], *e.type, n);
      return NoKernel(e);
    case Expr::Kind::kBinary:
      return Binary(e, args, n);
    case Expr::Kind::kFunction:
      return Function(e, args, n);
    case Expr::Kind::kBetween:
      return Between(args[0], args[1], args[2], e.negated, n);
    case Expr::Kind::kInList:
      return InList(args, e.negated, n);
    case Expr::Kind::kIsNull:
      return IsNullCol(args[0], e.negated, n);
    case Expr::Kind::kCase:
      return Case(e, args, n);
    default:
      return NoKernel(e);
  }
}

Result<Col> EvalCol(const Expr& e, const RowBatch& batch) {
  switch (e.kind) {
    case Expr::Kind::kLiteral:
      return ScalarCol(e.literal);
    case Expr::Kind::kColumnRef:
      return ColumnCol(e, batch);
    case Expr::Kind::kStar:
      return Status::Internal("bare * reached evaluation");
    default:
      break;
  }
  if (!e.type) return Untyped(e);
  std::vector<Col> args;
  args.reserve(e.args.size());
  bool constant = true;
  for (const auto& a : e.args) {
    PIXELS_ASSIGN_OR_RETURN(Col c, EvalCol(*a, batch));
    // The binder checked each operand's bound type against what the
    // kernel reads: the data must be a string exactly when that type is
    // (kernels read ints and doubles alike; all-NULL data is never read).
    if (a->type && !c.all_null() &&
        (c.cls() == PayloadClass::kString) != (*a->type == TypeId::kString)) {
      return NoKernel(e);
    }
    constant = constant && c.vec == nullptr;
    args.push_back(std::move(c));
  }
  // No column below: one kernel pass over one row stands for every row.
  PIXELS_ASSIGN_OR_RETURN(Col out,
                          Node(e, args, constant ? 1 : batch.num_rows()));
  if (constant) return ScalarCol(out.vec->GetValue(0));
  return out;
}

/// `n` copies of `v` as a vector of `type`.
Result<ColumnVectorPtr> Broadcast(const Value& v, TypeId type, size_t n) {
  auto out = MakeVector(type);
  out->Reserve(n);
  for (size_t i = 0; i < n; ++i) PIXELS_RETURN_NOT_OK(out->AppendValue(v));
  return out;
}

}  // namespace

Result<ColumnVectorPtr> EvaluateExpr(const Expr& expr, const RowBatch& batch) {
  // A bare column reference is the column itself, with its exact type.
  if (expr.kind == Expr::Kind::kColumnRef) return FindColumn(expr, batch);
  if (!expr.type) return Untyped(expr);
  // No rows: nothing is evaluated, so nothing can fail.
  if (batch.num_rows() == 0) return MakeVector(*expr.type);
  PIXELS_ASSIGN_OR_RETURN(Col c, EvalCol(expr, batch));
  if (c.vec == nullptr) return Broadcast(c.scalar, *expr.type, batch.num_rows());
  if (c.vec->type() != *expr.type) return NoKernel(expr);
  return c.vec;
}

Result<Value> EvaluateConstant(const Expr& expr) {
  PIXELS_ASSIGN_OR_RETURN(Col c, EvalCol(expr, RowBatch()));
  return c.scalar;
}

}  // namespace pixels
