//===- tests/TestHelpers.h - Shared test utilities --------------*- C++ -*-===//
//
// Part of the cfv project: reproduction of Jiang & Agrawal, CGO 2018.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the gtest suites: the backend list for typed tests,
/// deterministic random lane generators with controlled duplicate
/// density, and a lane-order scalar oracle for grouped reductions.
///
//===----------------------------------------------------------------------===//

#ifndef CFV_TESTS_TESTHELPERS_H
#define CFV_TESTS_TESTHELPERS_H

#include "simd/Conflict.h"
#include "simd/Mask.h"
#include "simd/Ops.h"
#include "simd/Vec.h"
#include "util/AlignedAlloc.h"
#include "util/Prng.h"

#include "gtest/gtest.h"

#include <array>
#include <cstdint>
#include <cstdlib>
#include <string>

namespace cfv {
namespace test {

/// All backends available in this build; typed suites run on each.
#if CFV_HAVE_AVX512
using AllBackends =
    ::testing::Types<simd::backend::Scalar, simd::backend::Avx512>;
#else
using AllBackends = ::testing::Types<simd::backend::Scalar>;
#endif

using Lane16i = std::array<int32_t, simd::kMaxLanes>;
using Lane16f = std::array<float, simd::kMaxLanes>;

/// Random index lanes drawn from [0, Universe): a small universe forces
/// heavy duplication, a large one keeps lanes mostly distinct.
inline Lane16i randomIndices(Xoshiro256 &Rng, uint32_t Universe) {
  Lane16i L;
  for (int32_t &X : L)
    X = static_cast<int32_t>(Rng.nextBounded(Universe));
  return L;
}

inline Lane16f randomFloats(Xoshiro256 &Rng, float Scale = 8.0f) {
  Lane16f L;
  for (float &X : L)
    X = (Rng.nextFloat() - 0.5f) * Scale;
  return L;
}

inline Lane16i randomInts(Xoshiro256 &Rng, uint32_t Bound = 1000) {
  Lane16i L;
  for (int32_t &X : L)
    X = static_cast<int32_t>(Rng.nextBounded(Bound)) - 500;
  return L;
}

inline simd::Mask16 randomMask(Xoshiro256 &Rng) {
  return static_cast<simd::Mask16>(Rng.next() & 0xFFFF);
}

/// Lane-order reference of what one in-vector reduction must produce:
/// every distinct index's first active lane ends up holding the fold (in
/// lane order) of all active lanes sharing the index; other lanes keep
/// their value; Ret marks the first-occurrence lanes.
template <typename Op, typename T> struct GroupReduceRef {
  std::array<T, simd::kMaxLanes> Data;
  simd::Mask16 Ret = 0;
};

template <typename Op, typename T>
GroupReduceRef<Op, T> refGroupReduce(simd::Mask16 Active, const Lane16i &Idx,
                                     const std::array<T, simd::kMaxLanes> &In) {
  GroupReduceRef<Op, T> R;
  R.Data = In;
  for (int I = 0; I < simd::kMaxLanes; ++I) {
    if (!simd::testLane(Active, I))
      continue;
    bool First = true;
    for (int J = 0; J < I; ++J)
      if (simd::testLane(Active, J) && Idx[J] == Idx[I])
        First = false;
    if (!First)
      continue;
    R.Ret |= simd::laneBit(I);
    T Acc = Op::template identity<T>();
    for (int J = 0; J < simd::kMaxLanes; ++J)
      if (simd::testLane(Active, J) && Idx[J] == Idx[I])
        Acc = Op::template apply<T>(Acc, In[J]);
    R.Data[I] = Acc;
  }
  return R;
}

/// Loads an index array into the given backend's integer vector.
template <typename B> simd::VecI32<B> loadIdx(const Lane16i &L) {
  return simd::VecI32<B>::load(L.data());
}

template <typename B> simd::VecF32<B> loadF(const Lane16f &L) {
  return simd::VecF32<B>::load(L.data());
}

/// Stores a vector back to an array for inspection.
template <typename B> Lane16i toArray(simd::VecI32<B> V) {
  Lane16i L;
  V.store(L.data());
  return L;
}

template <typename B> Lane16f toArray(simd::VecF32<B> V) {
  Lane16f L;
  V.store(L.data());
  return L;
}

/// Saves/restores one environment variable around a test; a null
/// \p Value unsets it for the scope.
struct EnvGuard {
  std::string Name;
  std::string Saved;
  bool Had;
  EnvGuard(const char *N, const char *Value) : Name(N) {
    const char *Prev = std::getenv(N);
    Had = Prev != nullptr;
    if (Had)
      Saved = Prev;
    if (Value)
      setenv(N, Value, 1);
    else
      unsetenv(N);
  }
  ~EnvGuard() {
    if (Had)
      setenv(Name.c_str(), Saved.c_str(), 1);
    else
      unsetenv(Name.c_str());
  }
};

} // namespace test
} // namespace cfv

#endif // CFV_TESTS_TESTHELPERS_H
