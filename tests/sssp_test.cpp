//===- tests/sssp_test.cpp - Wave-frontier SSSP --------------------------===//
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

/// Dijkstra reference over the same float weights.
AlignedVector<float> dijkstra(const EdgeList &G, int32_t Source) {
  const Csr Adj = buildCsr(G);
  constexpr float Inf = std::numeric_limits<float>::infinity();
  AlignedVector<float> Dist(G.NumNodes, Inf);
  Dist[Source] = 0.0f;
  using Item = std::pair<float, int32_t>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> Q;
  Q.push({0.0f, Source});
  while (!Q.empty()) {
    const auto [D, V] = Q.top();
    Q.pop();
    if (D > Dist[V])
      continue;
    for (int64_t E = Adj.RowBegin[V]; E < Adj.RowBegin[V + 1]; ++E) {
      const float Nd = D + Adj.Weight[E];
      if (Nd < Dist[Adj.Col[E]]) {
        Dist[Adj.Col[E]] = Nd;
        Q.push({Nd, Adj.Col[E]});
      }
    }
  }
  return Dist;
}

constexpr FrVersion kAllVersions[] = {
    FrVersion::NontilingSerial, FrVersion::NontilingMask,
    FrVersion::NontilingInvec, FrVersion::TilingGrouping};

} // namespace

class SsspVersions : public ::testing::TestWithParam<FrVersion> {};

TEST_P(SsspVersions, MatchesDijkstraOnRandomGraphs) {
  for (const uint64_t Seed : {1u, 2u, 3u}) {
    const EdgeList G = genUniform(9, 4000, Seed, 64.0f);
    const auto Want = dijkstra(G, 0);
    const FrontierResult R = runFrontier(G, FrApp::Sssp, GetParam());
    ASSERT_EQ(R.Value.size(), Want.size());
    for (int32_t V = 0; V < G.NumNodes; ++V)
      ASSERT_EQ(R.Value[V], Want[V]) << "seed " << Seed << " vertex " << V
                                     << " (min is exact in float)";
  }
}

TEST_P(SsspVersions, MatchesDijkstraOnSkewedGraph) {
  const EdgeList G = genRmat(10, 10000, 4, 64.0f);
  const auto Want = dijkstra(G, 0);
  const FrontierResult R = runFrontier(G, FrApp::Sssp, GetParam());
  for (int32_t V = 0; V < G.NumNodes; ++V)
    ASSERT_EQ(R.Value[V], Want[V]);
}

TEST_P(SsspVersions, UnreachableVerticesStayInfinite) {
  // Two disconnected stars.
  EdgeList G;
  G.NumNodes = 10;
  auto AddEdge = [&](int32_t S, int32_t D, float W) {
    G.Src.push_back(S);
    G.Dst.push_back(D);
    G.Weight.push_back(W);
  };
  AddEdge(0, 1, 1.0f);
  AddEdge(1, 2, 2.0f);
  AddEdge(5, 6, 1.0f); // unreachable island
  const FrontierResult R = runFrontier(G, FrApp::Sssp, GetParam());
  EXPECT_EQ(R.Value[0], 0.0f);
  EXPECT_EQ(R.Value[1], 1.0f);
  EXPECT_EQ(R.Value[2], 3.0f);
  EXPECT_TRUE(std::isinf(R.Value[5]));
  EXPECT_TRUE(std::isinf(R.Value[6]));
}

TEST_P(SsspVersions, ParallelEdgesPickTheLighter) {
  EdgeList G;
  G.NumNodes = 4;
  // 17 parallel edges 0->1 with decreasing weights; conflicts guaranteed
  // inside one 16-lane vector.
  for (int I = 0; I < 17; ++I) {
    G.Src.push_back(0);
    G.Dst.push_back(1);
    G.Weight.push_back(20.0f - static_cast<float>(I));
  }
  const FrontierResult R = runFrontier(G, FrApp::Sssp, GetParam());
  EXPECT_EQ(R.Value[1], 4.0f);
}

INSTANTIATE_TEST_SUITE_P(AllVersions, SsspVersions,
                         ::testing::ValuesIn(kAllVersions),
                         [](const auto &Info) {
                           return versionName(Info.param);
                         });

TEST(Sssp, AllVersionsBitIdentical) {
  const EdgeList G = genRmat(9, 6000, 5, 64.0f);
  const FrontierResult Ref =
      runFrontier(G, FrApp::Sssp, FrVersion::NontilingSerial);
  for (const FrVersion V :
       {FrVersion::NontilingMask, FrVersion::NontilingInvec,
        FrVersion::TilingGrouping}) {
    const FrontierResult R = runFrontier(G, FrApp::Sssp, V);
    EXPECT_EQ(R.Value, Ref.Value) << versionName(V);
    EXPECT_EQ(R.Iterations, Ref.Iterations) << versionName(V);
  }
}

TEST_P(SsspVersions, SelfLoopsAreHarmless) {
  EdgeList G;
  G.NumNodes = 4;
  auto AddEdge = [&](int32_t S, int32_t D, float W) {
    G.Src.push_back(S);
    G.Dst.push_back(D);
    G.Weight.push_back(W);
  };
  AddEdge(0, 0, 1.0f); // self loop at the source
  AddEdge(0, 1, 2.0f);
  AddEdge(1, 1, 5.0f); // self loop mid-path
  AddEdge(1, 2, 3.0f);
  const FrontierResult R = runFrontier(G, FrApp::Sssp, GetParam());
  EXPECT_EQ(R.Value[0], 0.0f);
  EXPECT_EQ(R.Value[1], 2.0f);
  EXPECT_EQ(R.Value[2], 5.0f);
}

TEST_P(SsspVersions, SourceWithNoOutgoingEdges) {
  EdgeList G;
  G.NumNodes = 4;
  G.Src = {1, 2};
  G.Dst = {2, 3};
  G.Weight = {1.0f, 1.0f};
  FrontierOptions O;
  O.Source = 0; // isolated source
  const FrontierResult R = runFrontier(G, FrApp::Sssp, GetParam(), O);
  EXPECT_EQ(R.Value[0], 0.0f);
  EXPECT_TRUE(std::isinf(R.Value[1]));
  EXPECT_TRUE(std::isinf(R.Value[3]));
  EXPECT_LE(R.Iterations, 1);
}

TEST_P(SsspVersions, NonZeroSource) {
  const EdgeList G = genUniform(8, 3000, 44, 16.0f);
  FrontierOptions O;
  O.Source = 100;
  const FrontierResult R = runFrontier(G, FrApp::Sssp, GetParam(), O);
  const FrontierResult Ref =
      runFrontier(G, FrApp::Sssp, FrVersion::NontilingSerial, O);
  EXPECT_EQ(R.Value, Ref.Value);
  EXPECT_EQ(R.Value[100], 0.0f);
}

TEST(Sssp, GroupingReportsPrepTime) {
  const EdgeList G = genRmat(9, 6000, 6, 64.0f);
  const FrontierResult R =
      runFrontier(G, FrApp::Sssp, FrVersion::TilingGrouping);
  EXPECT_GT(R.TilingSeconds + R.GroupingSeconds, 0.0);
  const FrontierResult S =
      runFrontier(G, FrApp::Sssp, FrVersion::NontilingSerial);
  EXPECT_EQ(S.GroupingSeconds, 0.0);
}

TEST(Sssp, MaskUtilizationWithinBounds) {
  const EdgeList G = genRmat(9, 6000, 7, 64.0f);
  const FrontierResult R =
      runFrontier(G, FrApp::Sssp, FrVersion::NontilingMask);
  EXPECT_GT(R.SimdUtil, 0.0);
  EXPECT_LE(R.SimdUtil, 1.0);
}

TEST(Sssp, StageBoundariesMatchSerialEverywhere) {
  test::checkStageCases(FrApp::Sssp, /*AllVerticesStart=*/false);
}
