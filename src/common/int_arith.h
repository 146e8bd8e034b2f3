// Two's-complement int64 arithmetic without signed-overflow undefined
// behaviour: the one integer rule the column kernels and the row
// evaluator (and so the optimizer's constant fold) share.
#pragma once

#include <cstdint>

namespace pixels {

inline int64_t WrapAdd(int64_t x, int64_t y) {
  return static_cast<int64_t>(static_cast<uint64_t>(x) +
                              static_cast<uint64_t>(y));
}
inline int64_t WrapSub(int64_t x, int64_t y) {
  return static_cast<int64_t>(static_cast<uint64_t>(x) -
                              static_cast<uint64_t>(y));
}
inline int64_t WrapMul(int64_t x, int64_t y) {
  return static_cast<int64_t>(static_cast<uint64_t>(x) *
                              static_cast<uint64_t>(y));
}
/// x / d and x % d for d != 0. INT64_MIN / -1 would trap, so a -1 divisor
/// negates with wraparound and leaves remainder 0.
inline int64_t WrapDiv(int64_t x, int64_t d) {
  return d == -1 ? WrapSub(0, x) : x / d;
}
inline int64_t WrapMod(int64_t x, int64_t d) { return d == -1 ? 0 : x % d; }

}  // namespace pixels
