//===- simd/Traits.h - BackendTraits facade ---------------------*- C++ -*-===//
//
// Part of the cfv project: reproduction of Jiang & Agrawal, CGO 2018.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// BackendTraits<B>: the one-stop description of a SIMD backend that all
/// lane-width-generic algorithm code (src/core, src/apps, src/masking,
/// src/verify/Kernels.cpp) programs against.  A backend declares
///
///   - its lane counts (kLanes 32-bit lanes, kLanes64 64-bit lanes) and
///     the matching full-vector masks (kFullMask, kFullMask64),
///   - its vector types (I32/F32/I64/F64, plus VecT<T> element-type
///     dispatch) and mask type (Mask16 universally: one bit per lane,
///     so masks convert freely between backends), and
///   - the full primitive set as static members: the load/store/gather/
///     scatter and masked ops live on the vector types; the cross-cutting
///     primitives (conflictBits, conflictFreeSubset, maskedReduce) are
///     re-exported here so generic code never has to name the free
///     functions' overload set.
///
/// Kernels templated on a backend B should derive every width-dependent
/// constant from these traits — never from a global lane count.  The
/// three backends differ in shape: Scalar and Avx512 are 16 x i32 /
/// 8 x i64 (the paper's 512-bit geometry), Avx2 is 8 x i32 / 4 x i64.
///
//===----------------------------------------------------------------------===//

#ifndef CFV_SIMD_TRAITS_H
#define CFV_SIMD_TRAITS_H

#include "simd/Backend.h"
#include "simd/Conflict.h"
#include "simd/Mask.h"
#include "simd/Ops.h"
#include "simd/Reduce.h"
#include "simd/Vec.h"
#include "simd/Vec64.h"

namespace cfv {
namespace simd {

template <typename B> struct BackendTraits {
  using Backend = B;

  /// Number of 32-bit lanes in one vector.
  static constexpr int kLanes = B::kLanes;
  /// Number of 64-bit lanes in one vector.
  static constexpr int kLanes64 = B::kLanes64;
  /// Short lowercase backend name ("scalar", "avx2", "avx512"); matches
  /// the --backend / CFV_BACKEND vocabulary.
  static constexpr const char *kName = B::kName;

  /// All 32-bit lanes active.
  static constexpr Mask16 kFullMask = static_cast<Mask16>((1u << kLanes) - 1);
  /// All 64-bit lanes active.
  static constexpr Mask16 kFullMask64 =
      static_cast<Mask16>((1u << kLanes64) - 1);

  /// The first \p Left lanes (all of them when Left >= kLanes): the
  /// active mask of a vector with Left elements still to go.
  static Mask16 firstLanes(int64_t Left) {
    return Left >= kLanes ? kFullMask
                          : static_cast<Mask16>((1u << Left) - 1u);
  }

  /// One bit per lane on every backend; see simd/Mask.h.
  using Mask = Mask16;

  using I32 = VecI32<B>;
  using F32 = VecF32<B>;
  using I64 = VecI64<B>;
  using F64 = VecF64<B>;

  /// Element-type dispatch: VecT<int32_t> = I32, VecT<float> = F32.
  template <typename T> using VecT = VecForT<T, B>;

  /// vpconflictd / vpconflictq semantics (synthesized on Avx2).
  static I32 conflict(I32 Idx) { return conflictBits(Idx); }
  static I64 conflict(I64 Idx) { return conflictBits(Idx); }

  /// The paper's v_get_conflict_free_subset (§3.2).
  static Mask16 conflictFree(Mask16 Active, I32 Idx) {
    return conflictFreeSubset(Active, Idx);
  }
  static Mask16 conflictFree(Mask16 Active, I64 Idx) {
    return conflictFreeSubset(Active, Idx);
  }

  /// The paper's v_horizontal_reduce: fold the lanes selected by \p M
  /// with the associative operator \p Op (simd/Ops.h).
  template <typename Op, typename V>
  static auto reduce(Mask16 M, V Vec) {
    return maskedReduce<Op>(M, Vec);
  }
};

} // namespace simd
} // namespace cfv

#endif // CFV_SIMD_TRAITS_H
