//===- tests/frontier_test.cpp - Frontier set ----------------------------===//
//
// Part of the cfv project: reproduction of Jiang & Agrawal, CGO 2018.
//
//===----------------------------------------------------------------------===//

#include "graph/Frontier.h"

#include "util/Prng.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <set>
#include <vector>

using namespace cfv;
using namespace cfv::graph;

TEST(Frontier, StartsEmpty) {
  Frontier F(10);
  EXPECT_TRUE(F.empty());
  EXPECT_EQ(F.size(), 0);
}

TEST(Frontier, AddDeduplicates) {
  Frontier F(10);
  F.add(3);
  F.add(3);
  F.add(7);
  F.add(3);
  EXPECT_EQ(F.size(), 2);
  EXPECT_TRUE(F.contains(3));
  EXPECT_TRUE(F.contains(7));
  EXPECT_FALSE(F.contains(0));
}

TEST(Frontier, FlagsMirrorMembership) {
  Frontier F(8);
  F.add(1);
  F.add(6);
  const int32_t *Flags = F.flags();
  for (int32_t V = 0; V < 8; ++V)
    EXPECT_EQ(Flags[V], (V == 1 || V == 6) ? 1 : 0);
}

TEST(Frontier, ClearResetsEverything) {
  Frontier F(8);
  F.add(2);
  F.add(5);
  F.clear();
  EXPECT_TRUE(F.empty());
  EXPECT_FALSE(F.contains(2));
  EXPECT_EQ(F.flags()[5], 0);
  F.add(2); // reusable after clear
  EXPECT_EQ(F.size(), 1);
}

TEST(Frontier, SwapExchangesContents) {
  Frontier A(8), B(8);
  A.add(1);
  B.add(2);
  B.add(3);
  A.swap(B);
  EXPECT_EQ(A.size(), 2);
  EXPECT_TRUE(A.contains(2));
  EXPECT_EQ(B.size(), 1);
  EXPECT_TRUE(B.contains(1));
}

TEST(Frontier, VerticesPreserveInsertionOrder) {
  Frontier F(16);
  F.add(9);
  F.add(0);
  F.add(4);
  const auto &V = F.vertices();
  ASSERT_EQ(V.size(), 3u);
  EXPECT_EQ(V[0], 9);
  EXPECT_EQ(V[1], 0);
  EXPECT_EQ(V[2], 4);
}

//===----------------------------------------------------------------------===//
// Waves: SIMD insertion and vertex-ordered publication, on every backend
//===----------------------------------------------------------------------===//

namespace {

#if CFV_HAVE_AVX2 && CFV_HAVE_AVX512
using FrontierBackends =
    ::testing::Types<simd::backend::Scalar, simd::backend::Avx2,
                     simd::backend::Avx512>;
#elif CFV_HAVE_AVX2
using FrontierBackends =
    ::testing::Types<simd::backend::Scalar, simd::backend::Avx2>;
#else
using FrontierBackends = ::testing::Types<simd::backend::Scalar>;
#endif

/// 37 vertices: not a multiple of any lane count, so the dense flag scan
/// ends on a partial vector.
constexpr int32_t kNodes = 37;

/// Wave sizes that land on each branch of Frontier::beginWave.
constexpr int64_t kSparseWave = 0;
constexpr int64_t kDenseWave = kNodes;

/// Inserts \p Ids through addLanes, kLanes ids per vector (pairwise
/// distinct within each vector, as the sweeps guarantee).
template <typename B>
void addAsLanes(Frontier &F, const std::vector<int32_t> &Ids) {
  constexpr int Lanes = B::kLanes;
  for (size_t I = 0; I < Ids.size(); I += Lanes) {
    alignas(64) int32_t Buf[simd::kMaxLanes] = {};
    const int N = static_cast<int>(std::min<size_t>(Lanes, Ids.size() - I));
    std::copy_n(Ids.begin() + static_cast<std::ptrdiff_t>(I), N, Buf);
    F.addLanes<B>(static_cast<simd::Mask16>((1u << N) - 1u),
                  simd::VecI32<B>::load(Buf));
  }
}

void expectStrictlyIncreasing(const Frontier &F,
                              const std::set<int32_t> &Want) {
  const auto &V = F.vertices();
  ASSERT_EQ(V.size(), Want.size());
  EXPECT_TRUE(std::equal(V.begin(), V.end(), Want.begin()));
  for (size_t I = 1; I < V.size(); ++I)
    EXPECT_LT(V[I - 1], V[I]) << "position " << I;
  for (int32_t X = 0; X < kNodes; ++X)
    EXPECT_EQ(F.flags()[X], Want.count(X) ? 1 : 0) << "vertex " << X;
}

} // namespace

template <typename B> class FrontierWave : public ::testing::Test {};
TYPED_TEST_SUITE(FrontierWave, FrontierBackends, );

TYPED_TEST(FrontierWave, PublishOrdersBothBranches) {
  for (const int64_t Wave : {kSparseWave, kDenseWave}) {
    Xoshiro256 Rng(static_cast<uint64_t>(Wave) + 5);
    for (int Round = 0; Round < 20; ++Round) {
      Frontier F(kNodes);
      F.beginWave(Wave);
      std::set<int32_t> Want;
      // Scalar and SIMD insertions mixed, in scrambled order, with
      // repeats across vectors.
      std::vector<int32_t> Lanes;
      for (int I = 0; I < 24; ++I) {
        const int32_t X = static_cast<int32_t>(Rng.nextBounded(kNodes));
        Want.insert(X);
        if (I % 3 == 0)
          F.add(X);
        else if (std::find(Lanes.begin(), Lanes.end(), X) == Lanes.end())
          Lanes.push_back(X);
      }
      addAsLanes<TypeParam>(F, Lanes);
      F.template publish<TypeParam>();
      expectStrictlyIncreasing(F, Want);
    }
  }
}

TYPED_TEST(FrontierWave, SparseWaveKeepsInsertionOrderUntilPublished) {
  Frontier F(kNodes);
  F.beginWave(kSparseWave);
  addAsLanes<TypeParam>(F, {30, 2, 17});
  F.add(5);
  const std::vector<int32_t> Inserted(F.vertices().begin(),
                                      F.vertices().end());
  EXPECT_EQ(Inserted, (std::vector<int32_t>{30, 2, 17, 5}));
  F.template publish<TypeParam>();
  expectStrictlyIncreasing(F, {2, 5, 17, 30});
}

TYPED_TEST(FrontierWave, LaneInsertionDedupesAcrossVectors) {
  for (const int64_t Wave : {kSparseWave, kDenseWave}) {
    Frontier F(kNodes);
    F.beginWave(Wave);
    // Vector 1 holds 0..5; vector 2 repeats 3..5 and adds 36 (the last
    // vertex); vector 3 is all repeats.
    addAsLanes<TypeParam>(F, {0, 1, 2, 3, 4, 5});
    addAsLanes<TypeParam>(F, {5, 36, 3, 4});
    addAsLanes<TypeParam>(F, {36, 0});
    F.add(4);
    F.template publish<TypeParam>();
    expectStrictlyIncreasing(F, {0, 1, 2, 3, 4, 5, 36});
  }
}

TYPED_TEST(FrontierWave, ClearAfterPublicationResetsEveryFlag) {
  for (const int64_t Wave : {kSparseWave, kDenseWave}) {
    Frontier F(kNodes);
    F.beginWave(Wave);
    std::vector<int32_t> All(kNodes);
    for (int32_t X = 0; X < kNodes; ++X)
      All[static_cast<size_t>(X)] = kNodes - 1 - X;
    addAsLanes<TypeParam>(F, All);
    F.template publish<TypeParam>();
    ASSERT_EQ(F.size(), kNodes);
    F.clear();
    EXPECT_TRUE(F.empty());
    for (int32_t X = 0; X < kNodes; ++X)
      EXPECT_EQ(F.flags()[X], 0) << "vertex " << X;
    // The next wave starts from a clean slate.
    F.beginWave(kSparseWave);
    F.add(8);
    F.template publish<TypeParam>();
    expectStrictlyIncreasing(F, {8});
  }
}

TYPED_TEST(FrontierWave, ClearMidDenseWaveResetsEveryFlag) {
  Frontier F(kNodes);
  F.beginWave(kDenseWave);
  addAsLanes<TypeParam>(F, {1, 20, 36});
  F.clear(); // before publish(): the flags are the only record
  for (int32_t X = 0; X < kNodes; ++X)
    EXPECT_EQ(F.flags()[X], 0) << "vertex " << X;
  F.template publish<TypeParam>();
  EXPECT_TRUE(F.empty());
}

TYPED_TEST(FrontierWave, SwapCarriesTheWaveMode) {
  Frontier Dense(kNodes), Other(kNodes);
  Dense.beginWave(kDenseWave);
  addAsLanes<TypeParam>(Dense, {9, 3});
  Dense.swap(Other);
  Other.template publish<TypeParam>();
  expectStrictlyIncreasing(Other, {3, 9});
}
