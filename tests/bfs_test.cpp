//===- tests/bfs_test.cpp - Wave-frontier BFS ------------------------------===//
//
// Part of the cfv project: reproduction of Jiang & Agrawal, CGO 2018.
//
//===----------------------------------------------------------------------===//

#include "apps/frontier/FrontierEngine.h"

#include "FrontierStageCases.h"

#include "graph/Generators.h"

#include "gtest/gtest.h"

#include <cmath>
#include <limits>
#include <queue>

using namespace cfv;
using namespace cfv::apps;
using namespace cfv::graph;

namespace {

/// Textbook queue BFS reference.
AlignedVector<float> bfsReference(const EdgeList &G, int32_t Source) {
  const Csr Adj = buildCsr(G);
  AlignedVector<float> Level(G.NumNodes,
                             std::numeric_limits<float>::infinity());
  Level[Source] = 0.0f;
  std::queue<int32_t> Q;
  Q.push(Source);
  while (!Q.empty()) {
    const int32_t V = Q.front();
    Q.pop();
    for (int64_t E = Adj.RowBegin[V]; E < Adj.RowBegin[V + 1]; ++E) {
      const int32_t U = Adj.Col[E];
      if (std::isinf(Level[U])) {
        Level[U] = Level[V] + 1.0f;
        Q.push(U);
      }
    }
  }
  return Level;
}

constexpr FrVersion kAllVersions[] = {
    FrVersion::NontilingSerial, FrVersion::NontilingMask,
    FrVersion::NontilingInvec, FrVersion::TilingGrouping};

} // namespace

class BfsVersions : public ::testing::TestWithParam<FrVersion> {};

TEST_P(BfsVersions, MatchesQueueBfs) {
  for (const uint64_t Seed : {31u, 32u}) {
    const EdgeList G = genRmat(9, 6000, Seed);
    const auto Want = bfsReference(G, 0);
    const FrontierResult R = runFrontier(G, FrApp::Bfs, GetParam());
    for (int32_t V = 0; V < G.NumNodes; ++V)
      ASSERT_EQ(R.Value[V], Want[V]) << "seed " << Seed << " vertex " << V;
  }
}

TEST_P(BfsVersions, LevelsOnAChain) {
  constexpr int32_t N = 40;
  EdgeList G;
  G.NumNodes = N;
  for (int32_t V = 0; V + 1 < N; ++V) {
    G.Src.push_back(V);
    G.Dst.push_back(V + 1);
  }
  const FrontierResult R = runFrontier(G, FrApp::Bfs, GetParam());
  for (int32_t V = 0; V < N; ++V)
    ASSERT_EQ(R.Value[V], static_cast<float>(V));
  // N-1 relaxing waves plus the final wave that expands the chain's last
  // vertex (whose adjacency is empty).
  EXPECT_EQ(R.Iterations, N);
}

TEST_P(BfsVersions, DiamondTakesShorterBranch) {
  // 0 -> {1, 2}, 1 -> 3, 2 -> 4 -> 3: level(3) must be 2 via vertex 1.
  EdgeList G;
  G.NumNodes = 5;
  auto Add = [&](int32_t S, int32_t D) {
    G.Src.push_back(S);
    G.Dst.push_back(D);
  };
  Add(0, 1);
  Add(0, 2);
  Add(1, 3);
  Add(2, 4);
  Add(4, 3);
  const FrontierResult R = runFrontier(G, FrApp::Bfs, GetParam());
  EXPECT_EQ(R.Value[3], 2.0f);
  EXPECT_EQ(R.Value[4], 2.0f);
}

INSTANTIATE_TEST_SUITE_P(AllVersions, BfsVersions,
                         ::testing::ValuesIn(kAllVersions),
                         [](const auto &Info) {
                           return versionName(Info.param);
                         });

TEST(Bfs, AllVersionsBitIdentical) {
  const EdgeList G = genClustered(9, 5000, 33, 8, 0.05);
  const FrontierResult Ref =
      runFrontier(G, FrApp::Bfs, FrVersion::NontilingSerial);
  for (const FrVersion V :
       {FrVersion::NontilingMask, FrVersion::NontilingInvec,
        FrVersion::TilingGrouping}) {
    const FrontierResult R = runFrontier(G, FrApp::Bfs, V);
    EXPECT_EQ(R.Value, Ref.Value) << versionName(V);
    EXPECT_EQ(R.Iterations, Ref.Iterations) << versionName(V);
  }
}

TEST(Bfs, StageBoundariesMatchSerialEverywhere) {
  test::checkStageCases(FrApp::Bfs, /*AllVerticesStart=*/false);
}
