//===- simd/Mask.h - 16-bit lane masks --------------------------*- C++ -*-===//
//
// Part of the cfv project: reproduction of Jiang & Agrawal, CGO 2018.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lane masks and bit-manipulation helpers.  A mask is a plain uint16_t
/// (one bit per lane, bit 0 = lane 0) on both backends; AVX-512's __mmask16
/// is itself an unsigned 16-bit integer so no wrapper type is needed and
/// masks convert freely between backends.
///
//===----------------------------------------------------------------------===//

#ifndef CFV_SIMD_MASK_H
#define CFV_SIMD_MASK_H

#include "simd/Backend.h"

#include <bit>
#include <cassert>
#include <cstdint>

namespace cfv {
namespace simd {

/// One bit per lane; bit i corresponds to lane i.
using Mask16 = uint16_t;

/// All 16 lanes active.
inline constexpr Mask16 kAllLanes = 0xFFFF;

/// Number of set bits (active lanes).
inline int popcount(Mask16 M) { return std::popcount(unsigned(M)); }

/// Index of the least significant set bit.  \p M must be nonzero.
inline int firstLane(Mask16 M) {
  assert(M != 0 && "firstLane on empty mask");
  return std::countr_zero(unsigned(M));
}

/// Isolates the least significant set bit (the paper's
/// "mreduce & (~mreduce + 1)" idiom, Algorithm 1 line 6).
inline Mask16 lowestBit(Mask16 M) {
  return static_cast<Mask16>(M & (~unsigned(M) + 1));
}

/// The mask containing only lane \p Lane.
inline Mask16 laneBit(int Lane) {
  assert(Lane >= 0 && Lane < kMaxLanes && "lane out of range");
  return static_cast<Mask16>(1u << Lane);
}

/// laneBit() of every lane as a table.  The scalar emulation's lane loops
/// build and test masks through it because the compiler vectorizes a
/// table lookup where it gives up on a shift by the loop index.
inline constexpr unsigned kLaneBits[kMaxLanes] = {
    1u << 0, 1u << 1, 1u << 2,  1u << 3,  1u << 4,  1u << 5,
    1u << 6, 1u << 7, 1u << 8,  1u << 9,  1u << 10, 1u << 11,
    1u << 12, 1u << 13, 1u << 14, 1u << 15};

/// True when lane \p Lane is set in \p M.
inline bool testLane(Mask16 M, int Lane) { return (M >> Lane) & 1u; }

} // namespace simd
} // namespace cfv

#endif // CFV_SIMD_MASK_H
