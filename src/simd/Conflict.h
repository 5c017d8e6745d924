//===- simd/Conflict.h - vpconflictd and conflict-free subsets --*- C++ -*-===//
//
// Part of the cfv project: reproduction of Jiang & Agrawal, CGO 2018.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The conflict-detection primitive at the heart of the paper (§2.1):
/// vpconflictd "tests each element in the index vector for equality with
/// all preceding elements"; lane i's result has bit j set iff j < i and
/// idx[j] == idx[i].  conflictFreeSubset() is the paper's
/// v_get_conflict_free_subset: the active lanes with no preceding *active*
/// duplicate, i.e. the first occurrence of every distinct index.  These
/// lanes can absorb partial reduction results and then be scattered to
/// memory without write conflicts.
///
//===----------------------------------------------------------------------===//

#ifndef CFV_SIMD_CONFLICT_H
#define CFV_SIMD_CONFLICT_H

#include "simd/Mask.h"
#include "simd/Vec.h"
#include "simd/Vec64.h"

#include <type_traits>

namespace cfv {
namespace simd {

/// Emulation of vpconflictd: lane i's value has bit j set iff j < i and
/// Idx[j] == Idx[i].
inline VecI32<backend::Scalar> conflictBits(VecI32<backend::Scalar> Idx) {
  // Lane I compares against the lanes of its own and the preceding
  // quarters (fixed-length loops the compiler vectorizes), then keeps the
  // bits below I.
  VecI32<backend::Scalar> R;
  const auto Quarter = [&](auto Upto, int First) {
    for (int I = First; I < First + 4; ++I) {
      unsigned Bits = 0;
      for (int J = 0; J < decltype(Upto)::value; ++J)
        Bits |= Idx.Lane[J] == Idx.Lane[I] ? kLaneBits[J] : 0u;
      R.Lane[I] = static_cast<int32_t>(Bits & (kLaneBits[I] - 1u));
    }
  };
  Quarter(std::integral_constant<int, 4>{}, 0);
  Quarter(std::integral_constant<int, 8>{}, 4);
  Quarter(std::integral_constant<int, 12>{}, 8);
  Quarter(std::integral_constant<int, 16>{}, 12);
  return R;
}

/// Emulation of the 64-bit vpconflictq, same bit semantics over 8 lanes.
inline VecI64<backend::Scalar> conflictBits(VecI64<backend::Scalar> Idx) {
  VecI64<backend::Scalar> R;
  for (int I = 0; I < backend::Scalar::kLanes64; ++I) {
    int64_t Bits = 0;
    for (int J = 0; J < I; ++J)
      if (Idx.Lane[J] == Idx.Lane[I])
        Bits |= int64_t(1) << J;
    R.Lane[I] = Bits;
  }
  return R;
}

#if CFV_HAVE_AVX2
/// AVX2 has no vpconflictd; synthesize it with a rotate/compare network.
/// For each rotation distance D in 1..7, lane I is compared against lane
/// I-D (a vpermd rotate followed by vpcmpeqd); on a match, bit I-D is
/// recorded in lane I.  The per-distance bit constants carry zeros in
/// lanes I < D, which kills the wrapped-around comparisons, so the result
/// matches vpconflictd bit for bit: lane I has bit J set iff J < I and
/// Idx[J] == Idx[I].  7 rotate+compare+and+or rounds for 8 lanes.
inline VecI32<backend::Avx2> conflictBits(VecI32<backend::Avx2> Idx) {
  __m256i R = _mm256_setzero_si256();
  const __m256i Iota = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  for (int D = 1; D < backend::Avx2::kLanes; ++D) {
    // Rotation index vector: lane I reads source lane (I - D) mod 8.
    __m256i Rot = _mm256_and_si256(
        _mm256_sub_epi32(Iota, _mm256_set1_epi32(D)), _mm256_set1_epi32(7));
    __m256i Shifted = _mm256_permutevar8x32_epi32(Idx.Raw, Rot);
    __m256i EqMask = _mm256_cmpeq_epi32(Idx.Raw, Shifted);
    // Bit constant: lane I contributes 1 << (I - D), zero when I < D.
    alignas(32) int32_t C[backend::Avx2::kLanes];
    for (int I = 0; I < backend::Avx2::kLanes; ++I)
      C[I] = I >= D ? (1 << (I - D)) : 0;
    __m256i Bits = _mm256_load_si256(reinterpret_cast<const __m256i *>(C));
    R = _mm256_or_si256(R, _mm256_and_si256(EqMask, Bits));
  }
  return VecI32<backend::Avx2>(R);
}

/// 64-bit variant over 4 lanes: three fixed vpermq rotations (the
/// immediate encodes (I - D) mod 4 per destination lane).
inline VecI64<backend::Avx2> conflictBits(VecI64<backend::Avx2> Idx) {
  __m256i R = _mm256_setzero_si256();
  __m256i Eq1 =
      _mm256_cmpeq_epi64(Idx.Raw, _mm256_permute4x64_epi64(Idx.Raw, 0x93));
  __m256i Eq2 =
      _mm256_cmpeq_epi64(Idx.Raw, _mm256_permute4x64_epi64(Idx.Raw, 0x4E));
  __m256i Eq3 =
      _mm256_cmpeq_epi64(Idx.Raw, _mm256_permute4x64_epi64(Idx.Raw, 0x39));
  R = _mm256_or_si256(
      R, _mm256_and_si256(Eq1, _mm256_setr_epi64x(0, 1, 2, 4)));
  R = _mm256_or_si256(
      R, _mm256_and_si256(Eq2, _mm256_setr_epi64x(0, 0, 1, 2)));
  R = _mm256_or_si256(
      R, _mm256_and_si256(Eq3, _mm256_setr_epi64x(0, 0, 0, 1)));
  return VecI64<backend::Avx2>(R);
}
#endif

#if CFV_HAVE_AVX512
inline VecI32<backend::Avx512> conflictBits(VecI32<backend::Avx512> Idx) {
  return VecI32<backend::Avx512>(_mm512_conflict_epi32(Idx.Raw));
}

inline VecI64<backend::Avx512> conflictBits(VecI64<backend::Avx512> Idx) {
  return VecI64<backend::Avx512>(_mm512_conflict_epi64(Idx.Raw));
}
#endif

/// The paper's v_get_conflict_free_subset(active, vindex): returns the
/// subset of \p Active lanes whose index does not appear in any preceding
/// active lane.  Implemented exactly as described in §3.2 -- vpconflictd
/// followed by a compare with the zero vector -- with the conflict bits of
/// inactive lanes masked off first so that retired lanes cannot shadow
/// live ones.
template <typename B>
inline Mask16 conflictFreeSubset(Mask16 Active, VecI32<B> Idx) {
  VecI32<B> Conf = conflictBits(Idx);
  // Drop conflict bits that refer to inactive lanes.
  Conf = Conf & VecI32<B>::broadcast(static_cast<int32_t>(Active));
  return Conf.maskEq(Active, VecI32<B>::zero());
}

/// 64-bit variant (vpconflictq path); only the low 8 bits of the masks
/// are significant.
template <typename B>
inline Mask16 conflictFreeSubset(Mask16 Active, VecI64<B> Idx) {
  VecI64<B> Conf = conflictBits(Idx);
  Conf = Conf & VecI64<B>::broadcast(static_cast<int64_t>(Active));
  return Conf.maskEq(Active, VecI64<B>::zero());
}

} // namespace simd
} // namespace cfv

#endif // CFV_SIMD_CONFLICT_H
