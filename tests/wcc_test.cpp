//===- tests/wcc_test.cpp - Weakly connected components -------------------===//
//
// Part of the cfv project: reproduction of Jiang & Agrawal, CGO 2018.
//
//===----------------------------------------------------------------------===//
//
// Note: the paper's WCC (Figure 2 context, §2.2) propagates labels along
// *directed* edges ("sends the index of the incoming vertex to the
// outgoing vertex"); we validate against a union-find over the same
// directed reachability semantics by symmetrizing the graph before
// running the engine, which makes label regions true weakly connected
// components.
//
//===----------------------------------------------------------------------===//

#include "apps/frontier/FrontierEngine.h"

#include "FrontierStageCases.h"

#include "graph/Generators.h"

#include "gtest/gtest.h"

#include <functional>
#include <numeric>

using namespace cfv;
using namespace cfv::apps;
using namespace cfv::graph;

namespace {

/// Adds the reverse of every edge so min-label propagation computes
/// weakly connected components.
EdgeList symmetrize(const EdgeList &G) {
  EdgeList S;
  S.NumNodes = G.NumNodes;
  for (int64_t E = 0; E < G.numEdges(); ++E) {
    S.Src.push_back(G.Src[E]);
    S.Dst.push_back(G.Dst[E]);
    S.Src.push_back(G.Dst[E]);
    S.Dst.push_back(G.Src[E]);
  }
  return S;
}

/// Union-find reference components.
std::vector<int32_t> unionFind(const EdgeList &G) {
  std::vector<int32_t> Parent(G.NumNodes);
  std::iota(Parent.begin(), Parent.end(), 0);
  std::function<int32_t(int32_t)> Find = [&](int32_t X) {
    while (Parent[X] != X) {
      Parent[X] = Parent[Parent[X]];
      X = Parent[X];
    }
    return X;
  };
  for (int64_t E = 0; E < G.numEdges(); ++E) {
    const int32_t A = Find(G.Src[E]);
    const int32_t B = Find(G.Dst[E]);
    if (A != B)
      Parent[std::max(A, B)] = std::min(A, B);
  }
  std::vector<int32_t> Root(G.NumNodes);
  for (int32_t V = 0; V < G.NumNodes; ++V)
    Root[V] = Find(V);
  return Root;
}

void expectComponentsMatch(const AlignedVector<float> &Labels,
                           const std::vector<int32_t> &Root) {
  // Same component <=> same label; and the label of a component is its
  // minimum vertex id (min-propagation from self-initialization).
  for (std::size_t V = 0; V < Labels.size(); ++V)
    ASSERT_EQ(Labels[V], static_cast<float>(Root[V])) << "vertex " << V;
}

constexpr FrVersion kAllVersions[] = {
    FrVersion::NontilingSerial, FrVersion::NontilingMask,
    FrVersion::NontilingInvec, FrVersion::TilingGrouping};

} // namespace

class WccVersions : public ::testing::TestWithParam<FrVersion> {};

TEST_P(WccVersions, MatchesUnionFindOnSparseGraph) {
  // Sparse: many components.
  const EdgeList G = symmetrize(genUniform(10, 600, 21));
  const auto Root = unionFind(G);
  const FrontierResult R = runFrontier(G, FrApp::Wcc, GetParam());
  expectComponentsMatch(R.Value, Root);
}

TEST_P(WccVersions, MatchesUnionFindOnDenseGraph) {
  // Dense: a giant component emerges.
  const EdgeList G = symmetrize(genRmat(9, 8000, 22));
  const auto Root = unionFind(G);
  const FrontierResult R = runFrontier(G, FrApp::Wcc, GetParam());
  expectComponentsMatch(R.Value, Root);
}

TEST_P(WccVersions, IsolatedVerticesKeepOwnLabel) {
  EdgeList G;
  G.NumNodes = 8;
  G.Src = {1, 2};
  G.Dst = {2, 1};
  const FrontierResult R = runFrontier(G, FrApp::Wcc, GetParam());
  EXPECT_EQ(R.Value[0], 0.0f);
  EXPECT_EQ(R.Value[1], 1.0f);
  EXPECT_EQ(R.Value[2], 1.0f);
  EXPECT_EQ(R.Value[7], 7.0f);
}

TEST_P(WccVersions, LongChainNeedsManyWaves) {
  // A path graph: the label of vertex 0 must travel the whole chain.
  constexpr int32_t N = 300;
  EdgeList G;
  G.NumNodes = N;
  for (int32_t V = 0; V + 1 < N; ++V) {
    G.Src.push_back(V);
    G.Dst.push_back(V + 1);
    G.Src.push_back(V + 1);
    G.Dst.push_back(V);
  }
  const FrontierResult R = runFrontier(G, FrApp::Wcc, GetParam());
  for (int32_t V = 0; V < N; ++V)
    ASSERT_EQ(R.Value[V], 0.0f);
  EXPECT_GT(R.Iterations, 100) << "wavefront must sweep the chain";
}

INSTANTIATE_TEST_SUITE_P(AllVersions, WccVersions,
                         ::testing::ValuesIn(kAllVersions),
                         [](const auto &Info) {
                           return versionName(Info.param);
                         });

TEST(Wcc, AllVersionsBitIdentical) {
  const EdgeList G = symmetrize(genRmat(9, 5000, 23));
  const FrontierResult Ref =
      runFrontier(G, FrApp::Wcc, FrVersion::NontilingSerial);
  for (const FrVersion V :
       {FrVersion::NontilingMask, FrVersion::NontilingInvec,
        FrVersion::TilingGrouping}) {
    const FrontierResult R = runFrontier(G, FrApp::Wcc, V);
    EXPECT_EQ(R.Value, Ref.Value) << versionName(V);
    EXPECT_EQ(R.Iterations, Ref.Iterations) << versionName(V);
  }
}

TEST(Wcc, StageBoundariesMatchSerialEverywhere) {
  test::checkStageCases(FrApp::Wcc, /*AllVerticesStart=*/true);
}
