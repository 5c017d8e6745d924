//===- tests/FrontierStageCases.h - Frontier walk edge cases ----*- C++ -*-===//
//
// Part of the cfv project: reproduction of Jiang & Agrawal, CGO 2018.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Graphs that put the nontiling versions' staged frontier walk on its
/// edges -- a hub row spanning several stages, rows ending exactly on a
/// stage boundary, empty rows, a one-vertex frontier, no edges at all --
/// and the check the SSSP, WCC and BFS suites run over them: every
/// version on every compiled backend at 1 and 3 threads must reproduce
/// nontiling_serial's values, iteration count and edge count, and a run
/// over a mapped CFVM backing must reproduce the in-core run.
///
//===----------------------------------------------------------------------===//

#ifndef CFV_TESTS_FRONTIERSTAGECASES_H
#define CFV_TESTS_FRONTIERSTAGECASES_H

#include "apps/frontier/FrontierEngine.h"
#include "core/Dispatch.h"
#include "graph/MappedCsr.h"

#include "TestHelpers.h"

#include "gtest/gtest.h"

#include <cstdio>
#include <string>
#include <vector>

namespace cfv {
namespace test {

struct StageCase {
  const char *Name;
  graph::EdgeList G;
};

inline void addEdge(graph::EdgeList &G, int32_t S, int32_t D) {
  G.Src.push_back(S);
  G.Dst.push_back(D);
  // Small integral weights: distances stay exact and ties are common.
  G.Weight.push_back(static_cast<float>((S * 3 + D) % 5 + 1));
}

/// Source 0's row spans 2.5 stages; every hub neighbor then fans out once
/// more, so the second wave's rows straddle stage boundaries too.
inline graph::EdgeList hubSpanningStages() {
  constexpr int64_t Stage = apps::kFrontierStageEdges;
  graph::EdgeList G;
  G.NumNodes = static_cast<int32_t>(3 * Stage);
  const int32_t Fan = static_cast<int32_t>(Stage * 5 / 2);
  for (int32_t V = 1; V <= Fan; ++V)
    addEdge(G, 0, V);
  for (int32_t V = 1; V <= Fan; ++V)
    addEdge(G, V, (V * 7) % G.NumNodes);
  return G;
}

/// Wave 2 is 64 rows of Stage/32 edges each, so every 32nd row ends
/// exactly on a stage boundary; the rows' targets collide heavily.
inline graph::EdgeList rowsEndingOnStageBoundaries() {
  constexpr int32_t Rows = 64;
  constexpr int32_t Degree = static_cast<int32_t>(apps::kFrontierStageEdges /
                                                  32);
  graph::EdgeList G;
  G.NumNodes = 4096;
  for (int32_t R = 1; R <= Rows; ++R)
    addEdge(G, 0, R);
  for (int32_t R = 1; R <= Rows; ++R)
    for (int32_t K = 0; K < Degree; ++K)
      addEdge(G, R, Rows + 1 + (R * 31 + K * 17) % (G.NumNodes - Rows - 1));
  return G;
}

/// Wave 2 interleaves empty rows with full ones, and a run of empty rows
/// sits where a stage fills.
inline graph::EdgeList emptyRowsInTheWalk() {
  constexpr int32_t Fan = 300;
  constexpr int32_t Degree = 120;
  graph::EdgeList G;
  G.NumNodes = 8192;
  for (int32_t V = 1; V <= Fan; ++V)
    addEdge(G, 0, V);
  for (int32_t V = 1; V <= Fan; ++V) {
    if (V % 2 == 1 || (V >= 130 && V < 150))
      continue; // no out-edges
    for (int32_t K = 0; K < Degree; ++K)
      addEdge(G, V, Fan + 1 + (V * 13 + K * 29) % (G.NumNodes - Fan - 1));
  }
  return G;
}

/// The start vertex has no edges while the rest of the graph does.  (WCC
/// starts every vertex; its one-vertex frontier is the one-vertex graph.)
inline graph::EdgeList isolatedStart(bool AllVerticesStart) {
  graph::EdgeList G;
  if (AllVerticesStart) {
    G.NumNodes = 1;
    return G;
  }
  G.NumNodes = 64;
  for (int32_t V = 1; V + 1 < G.NumNodes; ++V)
    addEdge(G, V, V + 1);
  return G;
}

inline graph::EdgeList edgeless() {
  graph::EdgeList G;
  G.NumNodes = 40;
  return G;
}

inline std::vector<StageCase> stageCases(bool AllVerticesStart) {
  std::vector<StageCase> Cases;
  Cases.push_back({"hub_spanning_stages", hubSpanningStages()});
  Cases.push_back({"rows_ending_on_stage_boundaries",
                   rowsEndingOnStageBoundaries()});
  Cases.push_back({"empty_rows", emptyRowsInTheWalk()});
  Cases.push_back({"isolated_start", isolatedStart(AllVerticesStart)});
  Cases.push_back({"edgeless", edgeless()});
  return Cases;
}

/// Restores automatic backend selection when a check ends.
struct BackendReset {
  ~BackendReset() { core::resetBackendForTest(); }
};

inline void expectSameRun(const apps::FrontierResult &R,
                          const apps::FrontierResult &Ref,
                          const std::string &What) {
  EXPECT_EQ(R.Value, Ref.Value) << What;
  EXPECT_EQ(R.Iterations, Ref.Iterations) << What;
  EXPECT_EQ(R.EdgesProcessed, Ref.EdgesProcessed) << What;
}

/// Runs \p A over every stage case and checks every version x compiled
/// backend x {1, 3} threads against one-thread scalar nontiling_serial,
/// then a mapped run against the in-core one.
inline void checkStageCases(apps::FrApp A, bool AllVerticesStart) {
  constexpr apps::FrVersion Versions[] = {
      apps::FrVersion::NontilingSerial, apps::FrVersion::NontilingMask,
      apps::FrVersion::NontilingInvec, apps::FrVersion::TilingGrouping};
  const BackendReset Reset;
  for (const StageCase &C : stageCases(AllVerticesStart)) {
    apps::FrontierOptions O;
    O.Threads = 1;
    core::setBackend(core::BackendKind::Scalar);
    const apps::FrontierResult Ref =
        apps::runFrontier(C.G, A, apps::FrVersion::NontilingSerial, O);
    for (const core::BackendInfo &Info : core::backendInfos()) {
      if (!Info.Available)
        continue;
      core::setBackend(Info.Kind);
      for (const apps::FrVersion V : Versions)
        for (const int Threads : {1, 3}) {
          O.Threads = Threads;
          expectSameRun(apps::runFrontier(C.G, A, V, O), Ref,
                        std::string(C.Name) + " " + Info.Name + " " +
                            apps::versionName(V) + " threads " +
                            std::to_string(Threads));
        }
    }

    // Out-of-core: the walk streams the mapped CSR sections, with a
    // residency window small enough to advise and evict mid-walk.
    // Named per app: the suites may run concurrently.
    const std::string Path = ::testing::TempDir() + "frontier_stage_" +
                             apps::appName(A) + "_" + C.Name + ".cfvm";
    ASSERT_TRUE(graph::MappedCsr::write(Path, C.G).ok()) << C.Name;
    {
      const EnvGuard Budget("CFV_MAP_BYTES", "65536");
      Expected<std::shared_ptr<graph::MappedCsr>> M =
          graph::MappedCsr::open(Path);
      ASSERT_TRUE(M.ok()) << C.Name << ": " << M.status().toString();
      core::resetBackendForTest();
      for (const int Threads : {1, 3}) {
        apps::FrontierOptions MO;
        MO.Threads = Threads;
        const apps::FrontierResult InCore = apps::runFrontier(
            C.G, A, apps::FrVersion::NontilingInvec, MO);
        MO.SharedMapped = M->get();
        expectSameRun(apps::runFrontier(C.G, A,
                                        apps::FrVersion::NontilingInvec, MO),
                      InCore,
                      std::string(C.Name) + " mapped threads " +
                          std::to_string(Threads));
      }
    }
    std::remove(Path.c_str());
  }
}

} // namespace test
} // namespace cfv

#endif // CFV_TESTS_FRONTIERSTAGECASES_H
