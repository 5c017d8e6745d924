//===- simd/Vec.h - 16-lane integer and float vectors -----------*- C++ -*-===//
//
// Part of the cfv project: reproduction of Jiang & Agrawal, CGO 2018.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// VecI32<Backend> and VecF32<Backend>: vectors of int32_t / float with the
/// load/store/gather/scatter and masked operations the paper's programming
/// interface (§3.5) builds on.  Lane width is per-backend (a `kLanes`
/// static on every vector type): 16 for Scalar and Avx512, 8 for Avx2.
/// The Avx512 specializations map 1:1 onto AVX-512F instructions; the Avx2
/// specializations cover the same API over ymm registers, emulating the
/// primitives the ISA lacks (scatter, compress, expand) through small
/// stack buffers with identical lane-ordering; the Scalar specializations
/// are bit-exact emulations whose loops double as documentation of each
/// instruction's semantics (notably the lane-ordering of scatter: on
/// overlap, the highest lane's value survives).
///
//===----------------------------------------------------------------------===//

#ifndef CFV_SIMD_VEC_H
#define CFV_SIMD_VEC_H

#include "simd/Backend.h"
#include "simd/Mask.h"

#include <cassert>
#include <cmath>
#include <cstdint>

namespace cfv {
namespace simd {

template <typename B> struct VecI32;
template <typename B> struct VecF32;

//===----------------------------------------------------------------------===//
// Scalar backend
//===----------------------------------------------------------------------===//

/// 16 x int32_t, portable emulation backend.
template <> struct VecI32<backend::Scalar> {
  static constexpr int kLanes = backend::Scalar::kLanes;

  alignas(64) int32_t Lane[kLanes];

  static VecI32 zero() { return broadcast(0); }

  static VecI32 broadcast(int32_t X) {
    VecI32 R;
    for (int32_t &L : R.Lane)
      L = X;
    return R;
  }

  /// Lanes 0, 1, ..., 15.
  static VecI32 iota() {
    VecI32 R;
    for (int I = 0; I < kLanes; ++I)
      R.Lane[I] = I;
    return R;
  }

  static VecI32 load(const int32_t *P) {
    VecI32 R;
    for (int I = 0; I < kLanes; ++I)
      R.Lane[I] = P[I];
    return R;
  }

  /// Lanes set in \p M are loaded from \p P, others keep \p Src.
  static VecI32 maskLoad(VecI32 Src, Mask16 M, const int32_t *P) {
    for (int I = 0; I < kLanes; ++I)
      if (testLane(M, I))
        Src.Lane[I] = P[I];
    return Src;
  }

  static VecI32 gather(const int32_t *Base, VecI32 Idx) {
    VecI32 R;
    for (int I = 0; I < kLanes; ++I)
      R.Lane[I] = Base[Idx.Lane[I]];
    return R;
  }

  static VecI32 maskGather(VecI32 Src, Mask16 M, const int32_t *Base,
                           VecI32 Idx) {
    for (int I = 0; I < kLanes; ++I)
      if (testLane(M, I))
        Src.Lane[I] = Base[Idx.Lane[I]];
    return Src;
  }

  void store(int32_t *P) const {
    for (int I = 0; I < kLanes; ++I)
      P[I] = Lane[I];
  }

  void maskStore(Mask16 M, int32_t *P) const {
    for (int I = 0; I < kLanes; ++I)
      if (testLane(M, I))
        P[I] = Lane[I];
  }

  /// Scatter writes proceed from lane 0 upward, so on index overlap the
  /// highest lane's value survives -- matching vpscatterdd.
  void scatter(int32_t *Base, VecI32 Idx) const {
    for (int I = 0; I < kLanes; ++I)
      Base[Idx.Lane[I]] = Lane[I];
  }

  void maskScatter(Mask16 M, int32_t *Base, VecI32 Idx) const {
    for (int I = 0; I < kLanes; ++I)
      if (testLane(M, I))
        Base[Idx.Lane[I]] = Lane[I];
  }

  int32_t extract(int L) const {
    assert(L >= 0 && L < kLanes && "lane out of range");
    return Lane[L];
  }

  /// All lanes take the value of lane \p L (vpermd with a splat index).
  VecI32 broadcastLane(int L) const { return broadcast(extract(L)); }

  /// Result lane = (M set ? B : A); AVX-512 mask_mov semantics.
  static VecI32 blend(Mask16 M, VecI32 A, VecI32 B) {
    for (int I = 0; I < kLanes; ++I)
      A.Lane[I] = (M & kLaneBits[I]) ? B.Lane[I] : A.Lane[I];
    return A;
  }

  /// Packs the lanes set in \p M into the low lanes, zeroing the rest
  /// (vpcompressd, zero-masked form).
  static VecI32 compress(Mask16 M, VecI32 V) {
    VecI32 R = zero();
    int Out = 0;
    for (int I = 0; I < kLanes; ++I)
      if (testLane(M, I))
        R.Lane[Out++] = V.Lane[I];
    return R;
  }

  /// Distributes the low popcount(M) lanes of \p V to the lanes set in
  /// \p M, zeroing the rest (vpexpandd, zero-masked form).
  static VecI32 expand(Mask16 M, VecI32 V) {
    VecI32 R = zero();
    int In = 0;
    for (int I = 0; I < kLanes; ++I)
      if (testLane(M, I))
        R.Lane[I] = V.Lane[In++];
    return R;
  }

  /// Stores the lanes set in \p M contiguously at \p P
  /// (vpcompressstoreu); returns the number of lanes written.
  int compressStore(Mask16 M, int32_t *P) const {
    int Out = 0;
    for (int I = 0; I < kLanes; ++I)
      if (testLane(M, I))
        P[Out++] = Lane[I];
    return Out;
  }

  // Arithmetic wraps like the hardware (vpaddd/vpsubd/vpmulld keep the
  // low 32 bits); compute in uint32_t since signed overflow is UB.
  friend VecI32 operator+(VecI32 A, VecI32 B) {
    for (int I = 0; I < kLanes; ++I)
      A.Lane[I] = static_cast<int32_t>(static_cast<uint32_t>(A.Lane[I]) +
                                       static_cast<uint32_t>(B.Lane[I]));
    return A;
  }
  friend VecI32 operator-(VecI32 A, VecI32 B) {
    for (int I = 0; I < kLanes; ++I)
      A.Lane[I] = static_cast<int32_t>(static_cast<uint32_t>(A.Lane[I]) -
                                       static_cast<uint32_t>(B.Lane[I]));
    return A;
  }
  friend VecI32 operator*(VecI32 A, VecI32 B) {
    for (int I = 0; I < kLanes; ++I)
      A.Lane[I] = static_cast<int32_t>(static_cast<uint32_t>(A.Lane[I]) *
                                       static_cast<uint32_t>(B.Lane[I]));
    return A;
  }
  friend VecI32 operator&(VecI32 A, VecI32 B) {
    for (int I = 0; I < kLanes; ++I)
      A.Lane[I] &= B.Lane[I];
    return A;
  }
  friend VecI32 operator|(VecI32 A, VecI32 B) {
    for (int I = 0; I < kLanes; ++I)
      A.Lane[I] |= B.Lane[I];
    return A;
  }

  /// Logical (unsigned) right shift by an immediate count.
  VecI32 shrl(int Count) const {
    VecI32 R;
    for (int I = 0; I < kLanes; ++I)
      R.Lane[I] = static_cast<int32_t>(static_cast<uint32_t>(Lane[I]) >>
                                       Count);
    return R;
  }

  /// Left shift by an immediate count.
  VecI32 shl(int Count) const {
    VecI32 R;
    for (int I = 0; I < kLanes; ++I)
      R.Lane[I] = static_cast<int32_t>(static_cast<uint32_t>(Lane[I])
                                       << Count);
    return R;
  }

  static VecI32 min(VecI32 A, VecI32 B) {
    for (int I = 0; I < kLanes; ++I)
      A.Lane[I] = A.Lane[I] < B.Lane[I] ? A.Lane[I] : B.Lane[I];
    return A;
  }
  static VecI32 max(VecI32 A, VecI32 B) {
    for (int I = 0; I < kLanes; ++I)
      A.Lane[I] = A.Lane[I] > B.Lane[I] ? A.Lane[I] : B.Lane[I];
    return A;
  }

  // Compares build the mask branch-free through kLaneBits, so the
  // lane loop vectorizes.
  Mask16 eq(VecI32 O) const {
    unsigned M = 0;
    for (int I = 0; I < kLanes; ++I)
      M |= Lane[I] == O.Lane[I] ? kLaneBits[I] : 0u;
    return static_cast<Mask16>(M);
  }
  Mask16 lt(VecI32 O) const {
    unsigned M = 0;
    for (int I = 0; I < kLanes; ++I)
      M |= Lane[I] < O.Lane[I] ? kLaneBits[I] : 0u;
    return static_cast<Mask16>(M);
  }
  Mask16 gt(VecI32 O) const {
    unsigned M = 0;
    for (int I = 0; I < kLanes; ++I)
      M |= Lane[I] > O.Lane[I] ? kLaneBits[I] : 0u;
    return static_cast<Mask16>(M);
  }

  /// Masked compare-equal: lanes outside \p Active report 0.
  Mask16 maskEq(Mask16 Active, VecI32 O) const {
    return static_cast<Mask16>(eq(O) & Active);
  }
};

/// 16 x float, portable emulation backend.
template <> struct VecF32<backend::Scalar> {
  static constexpr int kLanes = backend::Scalar::kLanes;

  alignas(64) float Lane[kLanes];

  using IdxVec = VecI32<backend::Scalar>;

  static VecF32 zero() { return broadcast(0.0f); }

  static VecF32 broadcast(float X) {
    VecF32 R;
    for (float &L : R.Lane)
      L = X;
    return R;
  }

  static VecF32 load(const float *P) {
    VecF32 R;
    for (int I = 0; I < kLanes; ++I)
      R.Lane[I] = P[I];
    return R;
  }

  static VecF32 maskLoad(VecF32 Src, Mask16 M, const float *P) {
    for (int I = 0; I < kLanes; ++I)
      if (testLane(M, I))
        Src.Lane[I] = P[I];
    return Src;
  }

  static VecF32 gather(const float *Base, IdxVec Idx) {
    VecF32 R;
    for (int I = 0; I < kLanes; ++I)
      R.Lane[I] = Base[Idx.Lane[I]];
    return R;
  }

  static VecF32 maskGather(VecF32 Src, Mask16 M, const float *Base,
                           IdxVec Idx) {
    for (int I = 0; I < kLanes; ++I)
      if (testLane(M, I))
        Src.Lane[I] = Base[Idx.Lane[I]];
    return Src;
  }

  void store(float *P) const {
    for (int I = 0; I < kLanes; ++I)
      P[I] = Lane[I];
  }

  void maskStore(Mask16 M, float *P) const {
    for (int I = 0; I < kLanes; ++I)
      if (testLane(M, I))
        P[I] = Lane[I];
  }

  void scatter(float *Base, IdxVec Idx) const {
    for (int I = 0; I < kLanes; ++I)
      Base[Idx.Lane[I]] = Lane[I];
  }

  void maskScatter(Mask16 M, float *Base, IdxVec Idx) const {
    for (int I = 0; I < kLanes; ++I)
      if (testLane(M, I))
        Base[Idx.Lane[I]] = Lane[I];
  }

  float extract(int L) const {
    assert(L >= 0 && L < kLanes && "lane out of range");
    return Lane[L];
  }

  VecF32 broadcastLane(int L) const { return broadcast(extract(L)); }

  static VecF32 blend(Mask16 M, VecF32 A, VecF32 B) {
    for (int I = 0; I < kLanes; ++I)
      if (testLane(M, I))
        A.Lane[I] = B.Lane[I];
    return A;
  }

  static VecF32 compress(Mask16 M, VecF32 V) {
    VecF32 R = zero();
    int Out = 0;
    for (int I = 0; I < kLanes; ++I)
      if (testLane(M, I))
        R.Lane[Out++] = V.Lane[I];
    return R;
  }

  static VecF32 expand(Mask16 M, VecF32 V) {
    VecF32 R = zero();
    int In = 0;
    for (int I = 0; I < kLanes; ++I)
      if (testLane(M, I))
        R.Lane[I] = V.Lane[In++];
    return R;
  }

  int compressStore(Mask16 M, float *P) const {
    int Out = 0;
    for (int I = 0; I < kLanes; ++I)
      if (testLane(M, I))
        P[Out++] = Lane[I];
    return Out;
  }

  friend VecF32 operator+(VecF32 A, VecF32 B) {
    for (int I = 0; I < kLanes; ++I)
      A.Lane[I] += B.Lane[I];
    return A;
  }
  friend VecF32 operator-(VecF32 A, VecF32 B) {
    for (int I = 0; I < kLanes; ++I)
      A.Lane[I] -= B.Lane[I];
    return A;
  }
  friend VecF32 operator*(VecF32 A, VecF32 B) {
    for (int I = 0; I < kLanes; ++I)
      A.Lane[I] *= B.Lane[I];
    return A;
  }
  friend VecF32 operator/(VecF32 A, VecF32 B) {
    for (int I = 0; I < kLanes; ++I)
      A.Lane[I] /= B.Lane[I];
    return A;
  }

  /// Round to nearest integer, ties to even (vrndscaleps semantics).
  VecF32 round() const {
    VecF32 R;
    for (int I = 0; I < kLanes; ++I)
      R.Lane[I] = std::nearbyintf(Lane[I]);
    return R;
  }

  static VecF32 min(VecF32 A, VecF32 B) {
    for (int I = 0; I < kLanes; ++I)
      A.Lane[I] = A.Lane[I] < B.Lane[I] ? A.Lane[I] : B.Lane[I];
    return A;
  }
  static VecF32 max(VecF32 A, VecF32 B) {
    for (int I = 0; I < kLanes; ++I)
      A.Lane[I] = A.Lane[I] > B.Lane[I] ? A.Lane[I] : B.Lane[I];
    return A;
  }

  Mask16 eq(VecF32 O) const {
    Mask16 M = 0;
    for (int I = 0; I < kLanes; ++I)
      if (Lane[I] == O.Lane[I])
        M |= laneBit(I);
    return M;
  }
  Mask16 lt(VecF32 O) const {
    Mask16 M = 0;
    for (int I = 0; I < kLanes; ++I)
      if (Lane[I] < O.Lane[I])
        M |= laneBit(I);
    return M;
  }
  Mask16 gt(VecF32 O) const {
    Mask16 M = 0;
    for (int I = 0; I < kLanes; ++I)
      if (Lane[I] > O.Lane[I])
        M |= laneBit(I);
    return M;
  }
};

/// Truncating float-to-int conversion (vcvttps2dq).
inline VecI32<backend::Scalar> toInt(VecF32<backend::Scalar> V) {
  VecI32<backend::Scalar> R;
  for (int I = 0; I < backend::Scalar::kLanes; ++I)
    R.Lane[I] = static_cast<int32_t>(V.Lane[I]);
  return R;
}

/// Int-to-float conversion (vcvtdq2ps).
inline VecF32<backend::Scalar> toFloat(VecI32<backend::Scalar> V) {
  VecF32<backend::Scalar> R;
  for (int I = 0; I < backend::Scalar::kLanes; ++I)
    R.Lane[I] = static_cast<float>(V.Lane[I]);
  return R;
}

//===----------------------------------------------------------------------===//
// AVX2 backend
//===----------------------------------------------------------------------===//

#if CFV_HAVE_AVX2

/// Expands the low 8 bits of \p M into a ymm lane mask (lane i all-ones
/// when bit i is set): broadcast, isolate each lane's bit, compare.  This
/// is the bridge between the universal Mask16 representation and AVX2,
/// which has no mask registers.
inline __m256i avx2MaskI32(Mask16 M) {
  const __m256i Bits = _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
  __m256i B = _mm256_and_si256(_mm256_set1_epi32(static_cast<int>(M)), Bits);
  return _mm256_cmpeq_epi32(B, Bits);
}

/// Collapses a ymm compare result (all-ones / all-zeros lanes) to Mask16.
inline Mask16 avx2ToMask(__m256i V) {
  return static_cast<Mask16>(_mm256_movemask_ps(_mm256_castsi256_ps(V)));
}

/// 8 x int32_t backed by one ymm register.
template <> struct VecI32<backend::Avx2> {
  static constexpr int kLanes = backend::Avx2::kLanes;

  __m256i Raw;

  VecI32() = default;
  explicit VecI32(__m256i R) : Raw(R) {}

  static VecI32 zero() { return VecI32(_mm256_setzero_si256()); }
  static VecI32 broadcast(int32_t X) { return VecI32(_mm256_set1_epi32(X)); }

  static VecI32 iota() {
    return VecI32(_mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  }

  static VecI32 load(const int32_t *P) {
    return VecI32(
        _mm256_loadu_si256(reinterpret_cast<const __m256i *>(P)));
  }

  /// vmaskmovd reads only the enabled lanes, so like the AVX-512 masked
  /// load this is safe when the disabled tail runs past the buffer end.
  static VecI32 maskLoad(VecI32 Src, Mask16 M, const int32_t *P) {
    __m256i MV = avx2MaskI32(M);
    __m256i L = _mm256_maskload_epi32(P, MV);
    return VecI32(_mm256_blendv_epi8(Src.Raw, L, MV));
  }

  static VecI32 gather(const int32_t *Base, VecI32 Idx) {
    return VecI32(_mm256_i32gather_epi32(Base, Idx.Raw, 4));
  }

  static VecI32 maskGather(VecI32 Src, Mask16 M, const int32_t *Base,
                           VecI32 Idx) {
    return VecI32(
        _mm256_mask_i32gather_epi32(Src.Raw, Base, Idx.Raw, avx2MaskI32(M), 4));
  }

  void store(int32_t *P) const {
    _mm256_storeu_si256(reinterpret_cast<__m256i *>(P), Raw);
  }

  void maskStore(Mask16 M, int32_t *P) const {
    _mm256_maskstore_epi32(P, avx2MaskI32(M), Raw);
  }

  /// AVX2 has no scatter; the spill loop walks lane 0 upward so on index
  /// overlap the highest lane's value survives, matching vpscatterdd.
  void scatter(int32_t *Base, VecI32 Idx) const {
    alignas(32) int32_t V[kLanes], X[kLanes];
    store(V);
    Idx.store(X);
    for (int I = 0; I < kLanes; ++I)
      Base[X[I]] = V[I];
  }

  void maskScatter(Mask16 M, int32_t *Base, VecI32 Idx) const {
    alignas(32) int32_t V[kLanes], X[kLanes];
    store(V);
    Idx.store(X);
    for (int I = 0; I < kLanes; ++I)
      if (testLane(M, I))
        Base[X[I]] = V[I];
  }

  int32_t extract(int L) const {
    assert(L >= 0 && L < kLanes && "lane out of range");
    alignas(32) int32_t Buf[kLanes];
    store(Buf);
    return Buf[L];
  }

  VecI32 broadcastLane(int L) const {
    return VecI32(_mm256_permutevar8x32_epi32(Raw, _mm256_set1_epi32(L)));
  }

  static VecI32 blend(Mask16 M, VecI32 A, VecI32 B) {
    return VecI32(_mm256_blendv_epi8(A.Raw, B.Raw, avx2MaskI32(M)));
  }

  /// vpcompressd emulation (zero-masked form).
  static VecI32 compress(Mask16 M, VecI32 V) {
    alignas(32) int32_t In[kLanes], Out[kLanes] = {};
    V.store(In);
    int N = 0;
    for (int I = 0; I < kLanes; ++I)
      if (testLane(M, I))
        Out[N++] = In[I];
    return load(Out);
  }

  /// vpexpandd emulation (zero-masked form).
  static VecI32 expand(Mask16 M, VecI32 V) {
    alignas(32) int32_t In[kLanes], Out[kLanes] = {};
    V.store(In);
    int N = 0;
    for (int I = 0; I < kLanes; ++I)
      if (testLane(M, I))
        Out[I] = In[N++];
    return load(Out);
  }

  /// vpcompressstoreu emulation; returns the number of lanes written.
  int compressStore(Mask16 M, int32_t *P) const {
    alignas(32) int32_t In[kLanes];
    store(In);
    int N = 0;
    for (int I = 0; I < kLanes; ++I)
      if (testLane(M, I))
        P[N++] = In[I];
    return N;
  }

  friend VecI32 operator+(VecI32 A, VecI32 B) {
    return VecI32(_mm256_add_epi32(A.Raw, B.Raw));
  }
  friend VecI32 operator-(VecI32 A, VecI32 B) {
    return VecI32(_mm256_sub_epi32(A.Raw, B.Raw));
  }
  friend VecI32 operator*(VecI32 A, VecI32 B) {
    return VecI32(_mm256_mullo_epi32(A.Raw, B.Raw));
  }
  friend VecI32 operator&(VecI32 A, VecI32 B) {
    return VecI32(_mm256_and_si256(A.Raw, B.Raw));
  }
  friend VecI32 operator|(VecI32 A, VecI32 B) {
    return VecI32(_mm256_or_si256(A.Raw, B.Raw));
  }

  /// Logical (unsigned) right shift by an immediate count.
  VecI32 shrl(int Count) const {
    return VecI32(_mm256_srli_epi32(Raw, Count));
  }

  /// Left shift by an immediate count.
  VecI32 shl(int Count) const {
    return VecI32(_mm256_slli_epi32(Raw, Count));
  }

  static VecI32 min(VecI32 A, VecI32 B) {
    return VecI32(_mm256_min_epi32(A.Raw, B.Raw));
  }
  static VecI32 max(VecI32 A, VecI32 B) {
    return VecI32(_mm256_max_epi32(A.Raw, B.Raw));
  }

  Mask16 eq(VecI32 O) const {
    return avx2ToMask(_mm256_cmpeq_epi32(Raw, O.Raw));
  }
  Mask16 lt(VecI32 O) const {
    return avx2ToMask(_mm256_cmpgt_epi32(O.Raw, Raw));
  }
  Mask16 gt(VecI32 O) const {
    return avx2ToMask(_mm256_cmpgt_epi32(Raw, O.Raw));
  }

  Mask16 maskEq(Mask16 Active, VecI32 O) const {
    return static_cast<Mask16>(eq(O) & Active);
  }
};

/// 8 x float backed by one ymm register.
template <> struct VecF32<backend::Avx2> {
  static constexpr int kLanes = backend::Avx2::kLanes;

  __m256 Raw;

  using IdxVec = VecI32<backend::Avx2>;

  VecF32() = default;
  explicit VecF32(__m256 R) : Raw(R) {}

  static VecF32 zero() { return VecF32(_mm256_setzero_ps()); }
  static VecF32 broadcast(float X) { return VecF32(_mm256_set1_ps(X)); }

  static VecF32 load(const float *P) { return VecF32(_mm256_loadu_ps(P)); }

  static VecF32 maskLoad(VecF32 Src, Mask16 M, const float *P) {
    __m256i MV = avx2MaskI32(M);
    __m256 L = _mm256_maskload_ps(P, MV);
    return VecF32(_mm256_blendv_ps(Src.Raw, L, _mm256_castsi256_ps(MV)));
  }

  static VecF32 gather(const float *Base, IdxVec Idx) {
    return VecF32(_mm256_i32gather_ps(Base, Idx.Raw, 4));
  }

  static VecF32 maskGather(VecF32 Src, Mask16 M, const float *Base,
                           IdxVec Idx) {
    return VecF32(_mm256_mask_i32gather_ps(
        Src.Raw, Base, Idx.Raw, _mm256_castsi256_ps(avx2MaskI32(M)), 4));
  }

  void store(float *P) const { _mm256_storeu_ps(P, Raw); }

  void maskStore(Mask16 M, float *P) const {
    _mm256_maskstore_ps(P, avx2MaskI32(M), Raw);
  }

  void scatter(float *Base, IdxVec Idx) const {
    alignas(32) float V[kLanes];
    alignas(32) int32_t X[kLanes];
    store(V);
    Idx.store(X);
    for (int I = 0; I < kLanes; ++I)
      Base[X[I]] = V[I];
  }

  void maskScatter(Mask16 M, float *Base, IdxVec Idx) const {
    alignas(32) float V[kLanes];
    alignas(32) int32_t X[kLanes];
    store(V);
    Idx.store(X);
    for (int I = 0; I < kLanes; ++I)
      if (testLane(M, I))
        Base[X[I]] = V[I];
  }

  float extract(int L) const {
    assert(L >= 0 && L < kLanes && "lane out of range");
    alignas(32) float Buf[kLanes];
    store(Buf);
    return Buf[L];
  }

  VecF32 broadcastLane(int L) const {
    return VecF32(_mm256_permutevar8x32_ps(Raw, _mm256_set1_epi32(L)));
  }

  static VecF32 blend(Mask16 M, VecF32 A, VecF32 B) {
    return VecF32(
        _mm256_blendv_ps(A.Raw, B.Raw, _mm256_castsi256_ps(avx2MaskI32(M))));
  }

  static VecF32 compress(Mask16 M, VecF32 V) {
    alignas(32) float In[kLanes], Out[kLanes] = {};
    V.store(In);
    int N = 0;
    for (int I = 0; I < kLanes; ++I)
      if (testLane(M, I))
        Out[N++] = In[I];
    return load(Out);
  }

  static VecF32 expand(Mask16 M, VecF32 V) {
    alignas(32) float In[kLanes], Out[kLanes] = {};
    V.store(In);
    int N = 0;
    for (int I = 0; I < kLanes; ++I)
      if (testLane(M, I))
        Out[I] = In[N++];
    return load(Out);
  }

  int compressStore(Mask16 M, float *P) const {
    alignas(32) float In[kLanes];
    store(In);
    int N = 0;
    for (int I = 0; I < kLanes; ++I)
      if (testLane(M, I))
        P[N++] = In[I];
    return N;
  }

  friend VecF32 operator+(VecF32 A, VecF32 B) {
    return VecF32(_mm256_add_ps(A.Raw, B.Raw));
  }
  friend VecF32 operator-(VecF32 A, VecF32 B) {
    return VecF32(_mm256_sub_ps(A.Raw, B.Raw));
  }
  friend VecF32 operator*(VecF32 A, VecF32 B) {
    return VecF32(_mm256_mul_ps(A.Raw, B.Raw));
  }
  friend VecF32 operator/(VecF32 A, VecF32 B) {
    return VecF32(_mm256_div_ps(A.Raw, B.Raw));
  }

  /// Round to nearest integer, ties to even.
  VecF32 round() const {
    return VecF32(
        _mm256_round_ps(Raw, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC));
  }

  static VecF32 min(VecF32 A, VecF32 B) {
    return VecF32(_mm256_min_ps(A.Raw, B.Raw));
  }
  static VecF32 max(VecF32 A, VecF32 B) {
    return VecF32(_mm256_max_ps(A.Raw, B.Raw));
  }

  Mask16 eq(VecF32 O) const {
    return static_cast<Mask16>(
        _mm256_movemask_ps(_mm256_cmp_ps(Raw, O.Raw, _CMP_EQ_OQ)));
  }
  Mask16 lt(VecF32 O) const {
    return static_cast<Mask16>(
        _mm256_movemask_ps(_mm256_cmp_ps(Raw, O.Raw, _CMP_LT_OQ)));
  }
  Mask16 gt(VecF32 O) const {
    return static_cast<Mask16>(
        _mm256_movemask_ps(_mm256_cmp_ps(Raw, O.Raw, _CMP_GT_OQ)));
  }
};

inline VecI32<backend::Avx2> toInt(VecF32<backend::Avx2> V) {
  return VecI32<backend::Avx2>(_mm256_cvttps_epi32(V.Raw));
}

inline VecF32<backend::Avx2> toFloat(VecI32<backend::Avx2> V) {
  return VecF32<backend::Avx2>(_mm256_cvtepi32_ps(V.Raw));
}

#endif // CFV_HAVE_AVX2

//===----------------------------------------------------------------------===//
// AVX-512 backend
//===----------------------------------------------------------------------===//

#if CFV_HAVE_AVX512

/// 16 x int32_t backed by one zmm register.
template <> struct VecI32<backend::Avx512> {
  static constexpr int kLanes = backend::Avx512::kLanes;

  __m512i Raw;

  VecI32() = default;
  explicit VecI32(__m512i R) : Raw(R) {}

  static VecI32 zero() { return VecI32(_mm512_setzero_si512()); }
  static VecI32 broadcast(int32_t X) { return VecI32(_mm512_set1_epi32(X)); }

  static VecI32 iota() {
    return VecI32(_mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12,
                                    13, 14, 15));
  }

  static VecI32 load(const int32_t *P) {
    return VecI32(_mm512_loadu_si512(P));
  }

  static VecI32 maskLoad(VecI32 Src, Mask16 M, const int32_t *P) {
    return VecI32(_mm512_mask_loadu_epi32(Src.Raw, M, P));
  }

  static VecI32 gather(const int32_t *Base, VecI32 Idx) {
    return VecI32(_mm512_i32gather_epi32(Idx.Raw, Base, 4));
  }

  static VecI32 maskGather(VecI32 Src, Mask16 M, const int32_t *Base,
                           VecI32 Idx) {
    return VecI32(_mm512_mask_i32gather_epi32(Src.Raw, M, Idx.Raw, Base, 4));
  }

  void store(int32_t *P) const { _mm512_storeu_si512(P, Raw); }

  void maskStore(Mask16 M, int32_t *P) const {
    _mm512_mask_storeu_epi32(P, M, Raw);
  }

  void scatter(int32_t *Base, VecI32 Idx) const {
    _mm512_i32scatter_epi32(Base, Idx.Raw, Raw, 4);
  }

  void maskScatter(Mask16 M, int32_t *Base, VecI32 Idx) const {
    _mm512_mask_i32scatter_epi32(Base, M, Idx.Raw, Raw, 4);
  }

  int32_t extract(int L) const {
    assert(L >= 0 && L < kLanes && "lane out of range");
    alignas(64) int32_t Buf[kLanes];
    _mm512_store_si512(Buf, Raw);
    return Buf[L];
  }

  VecI32 broadcastLane(int L) const {
    return VecI32(
        _mm512_permutexvar_epi32(_mm512_set1_epi32(L), Raw));
  }

  static VecI32 blend(Mask16 M, VecI32 A, VecI32 B) {
    return VecI32(_mm512_mask_mov_epi32(A.Raw, M, B.Raw));
  }

  static VecI32 compress(Mask16 M, VecI32 V) {
    return VecI32(_mm512_maskz_compress_epi32(M, V.Raw));
  }

  static VecI32 expand(Mask16 M, VecI32 V) {
    return VecI32(_mm512_maskz_expand_epi32(M, V.Raw));
  }

  int compressStore(Mask16 M, int32_t *P) const {
    _mm512_mask_compressstoreu_epi32(P, M, Raw);
    return popcount(M);
  }

  friend VecI32 operator+(VecI32 A, VecI32 B) {
    return VecI32(_mm512_add_epi32(A.Raw, B.Raw));
  }
  friend VecI32 operator-(VecI32 A, VecI32 B) {
    return VecI32(_mm512_sub_epi32(A.Raw, B.Raw));
  }
  friend VecI32 operator*(VecI32 A, VecI32 B) {
    return VecI32(_mm512_mullo_epi32(A.Raw, B.Raw));
  }
  friend VecI32 operator&(VecI32 A, VecI32 B) {
    return VecI32(_mm512_and_si512(A.Raw, B.Raw));
  }
  friend VecI32 operator|(VecI32 A, VecI32 B) {
    return VecI32(_mm512_or_si512(A.Raw, B.Raw));
  }

  /// Logical (unsigned) right shift by an immediate count.
  VecI32 shrl(int Count) const {
    return VecI32(_mm512_srli_epi32(Raw, static_cast<unsigned>(Count)));
  }

  /// Left shift by an immediate count.
  VecI32 shl(int Count) const {
    return VecI32(_mm512_slli_epi32(Raw, static_cast<unsigned>(Count)));
  }

  static VecI32 min(VecI32 A, VecI32 B) {
    return VecI32(_mm512_min_epi32(A.Raw, B.Raw));
  }
  static VecI32 max(VecI32 A, VecI32 B) {
    return VecI32(_mm512_max_epi32(A.Raw, B.Raw));
  }

  Mask16 eq(VecI32 O) const { return _mm512_cmpeq_epi32_mask(Raw, O.Raw); }
  Mask16 lt(VecI32 O) const { return _mm512_cmplt_epi32_mask(Raw, O.Raw); }
  Mask16 gt(VecI32 O) const { return _mm512_cmpgt_epi32_mask(Raw, O.Raw); }

  Mask16 maskEq(Mask16 Active, VecI32 O) const {
    return _mm512_mask_cmpeq_epi32_mask(Active, Raw, O.Raw);
  }
};

/// 16 x float backed by one zmm register.
template <> struct VecF32<backend::Avx512> {
  static constexpr int kLanes = backend::Avx512::kLanes;

  __m512 Raw;

  using IdxVec = VecI32<backend::Avx512>;

  VecF32() = default;
  explicit VecF32(__m512 R) : Raw(R) {}

  static VecF32 zero() { return VecF32(_mm512_setzero_ps()); }
  static VecF32 broadcast(float X) { return VecF32(_mm512_set1_ps(X)); }

  static VecF32 load(const float *P) { return VecF32(_mm512_loadu_ps(P)); }

  static VecF32 maskLoad(VecF32 Src, Mask16 M, const float *P) {
    return VecF32(_mm512_mask_loadu_ps(Src.Raw, M, P));
  }

  static VecF32 gather(const float *Base, IdxVec Idx) {
    return VecF32(_mm512_i32gather_ps(Idx.Raw, Base, 4));
  }

  static VecF32 maskGather(VecF32 Src, Mask16 M, const float *Base,
                           IdxVec Idx) {
    return VecF32(_mm512_mask_i32gather_ps(Src.Raw, M, Idx.Raw, Base, 4));
  }

  void store(float *P) const { _mm512_storeu_ps(P, Raw); }

  void maskStore(Mask16 M, float *P) const {
    _mm512_mask_storeu_ps(P, M, Raw);
  }

  void scatter(float *Base, IdxVec Idx) const {
    _mm512_i32scatter_ps(Base, Idx.Raw, Raw, 4);
  }

  void maskScatter(Mask16 M, float *Base, IdxVec Idx) const {
    _mm512_mask_i32scatter_ps(Base, M, Idx.Raw, Raw, 4);
  }

  float extract(int L) const {
    assert(L >= 0 && L < kLanes && "lane out of range");
    alignas(64) float Buf[kLanes];
    _mm512_store_ps(Buf, Raw);
    return Buf[L];
  }

  VecF32 broadcastLane(int L) const {
    return VecF32(_mm512_permutexvar_ps(_mm512_set1_epi32(L), Raw));
  }

  static VecF32 blend(Mask16 M, VecF32 A, VecF32 B) {
    return VecF32(_mm512_mask_mov_ps(A.Raw, M, B.Raw));
  }

  static VecF32 compress(Mask16 M, VecF32 V) {
    return VecF32(_mm512_maskz_compress_ps(M, V.Raw));
  }

  static VecF32 expand(Mask16 M, VecF32 V) {
    return VecF32(_mm512_maskz_expand_ps(M, V.Raw));
  }

  int compressStore(Mask16 M, float *P) const {
    _mm512_mask_compressstoreu_ps(P, M, Raw);
    return popcount(M);
  }

  friend VecF32 operator+(VecF32 A, VecF32 B) {
    return VecF32(_mm512_add_ps(A.Raw, B.Raw));
  }
  friend VecF32 operator-(VecF32 A, VecF32 B) {
    return VecF32(_mm512_sub_ps(A.Raw, B.Raw));
  }
  friend VecF32 operator*(VecF32 A, VecF32 B) {
    return VecF32(_mm512_mul_ps(A.Raw, B.Raw));
  }
  friend VecF32 operator/(VecF32 A, VecF32 B) {
    return VecF32(_mm512_div_ps(A.Raw, B.Raw));
  }

  /// Round to nearest integer, ties to even.
  VecF32 round() const {
    return VecF32(_mm512_roundscale_ps(
        Raw, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC));
  }

  static VecF32 min(VecF32 A, VecF32 B) {
    return VecF32(_mm512_min_ps(A.Raw, B.Raw));
  }
  static VecF32 max(VecF32 A, VecF32 B) {
    return VecF32(_mm512_max_ps(A.Raw, B.Raw));
  }

  Mask16 eq(VecF32 O) const {
    return _mm512_cmp_ps_mask(Raw, O.Raw, _CMP_EQ_OQ);
  }
  Mask16 lt(VecF32 O) const {
    return _mm512_cmp_ps_mask(Raw, O.Raw, _CMP_LT_OQ);
  }
  Mask16 gt(VecF32 O) const {
    return _mm512_cmp_ps_mask(Raw, O.Raw, _CMP_GT_OQ);
  }
};

inline VecI32<backend::Avx512> toInt(VecF32<backend::Avx512> V) {
  return VecI32<backend::Avx512>(_mm512_cvttps_epi32(V.Raw));
}

inline VecF32<backend::Avx512> toFloat(VecI32<backend::Avx512> V) {
  return VecF32<backend::Avx512>(_mm512_cvtepi32_ps(V.Raw));
}

#endif // CFV_HAVE_AVX512

//===----------------------------------------------------------------------===//
// Element-type dispatch
//===----------------------------------------------------------------------===//

/// Maps an element type to its vector type for backend \p B.
template <typename T, typename B> struct VecFor;
template <typename B> struct VecFor<int32_t, B> {
  using type = VecI32<B>;
};
template <typename B> struct VecFor<float, B> {
  using type = VecF32<B>;
};

template <typename T, typename B> using VecForT = typename VecFor<T, B>::type;

} // namespace simd
} // namespace cfv

#endif // CFV_SIMD_VEC_H
