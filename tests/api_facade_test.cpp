//===- tests/api_facade_test.cpp - Unified run API -------------------------===//
//
// Part of the cfv project: reproduction of Jiang & Agrawal, CGO 2018.
//
//===----------------------------------------------------------------------===//
//
// cfv::run(AppRequest) facade: name parsing, happy path through every
// application, structured error reporting, and the no-global-mutation
// guarantee for per-request backend selection.
//
//===----------------------------------------------------------------------===//

#include "core/Api.h"
#include "graph/Generators.h"
#include "graph/Prepared.h"
#include "obs/Trace.h"
#include "workload/KeyGen.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <cmath>

using namespace cfv;

namespace {

/// Small shared inputs, built once per process.
struct Fixtures {
  graph::EdgeList G = graph::genRmat(9, 4000, 42, /*MaxWeight=*/8.0f);
  graph::EdgeList Unweighted = graph::genRmat(9, 4000, 43);
  AlignedVector<int32_t> Keys =
      workload::genKeys(workload::KeyDist::Zipf, 20000, 256, 11);
  AlignedVector<float> Vals = workload::genValues(20000, 12);
  apps::Mesh M = apps::makeTriangulatedGrid(12, 12, 5);
  AlignedVector<float> U0;
  Fixtures() {
    U0.assign(M.NumCells, 0.0f);
    U0[0] = 50.0f;
  }
  static const Fixtures &get() {
    static Fixtures F;
    return F;
  }
};

AppRequest baseRequest(AppId App) {
  const Fixtures &F = Fixtures::get();
  AppRequest R;
  R.App = App;
  R.Graph = &F.G;
  R.Keys = F.Keys.data();
  R.Vals = F.Vals.data();
  R.Rows = 20000;
  R.Cardinality = 256;
  R.Moldyn.Cells = 4;
  R.MeshIn = &F.M;
  R.U0 = F.U0.data();
  R.Options.MaxIterations = 3;
  R.Options.Threads = 1; // deterministic regardless of CFV_THREADS
  return R;
}

void expectInvalid(const AppRequest &R, const char *What) {
  const Expected<AppResult> Res = run(R);
  ASSERT_FALSE(Res.ok()) << What;
  EXPECT_EQ(Res.status().code(), ErrorCode::InvalidArgument) << What;
  EXPECT_FALSE(Res.status().message().empty()) << What;
}

} // namespace

//===----------------------------------------------------------------------===//
// Name parsing
//===----------------------------------------------------------------------===//

TEST(ParseAppId, KnownAndUnknown) {
  const struct {
    const char *Name;
    AppId Want;
  } Cases[] = {
      {"pagerank", AppId::PageRank}, {"pagerank64", AppId::PageRank64},
      {"sssp", AppId::Sssp},         {"sswp", AppId::Sswp},
      {"wcc", AppId::Wcc},           {"bfs", AppId::Bfs},
      {"moldyn", AppId::Moldyn},     {"agg", AppId::Agg},
      {"rbk", AppId::Rbk},           {"spmv", AppId::Spmv},
      {"mesh", AppId::Mesh},
  };
  for (const auto &C : Cases) {
    const Expected<AppId> Got = parseAppId(C.Name);
    ASSERT_TRUE(Got.ok()) << C.Name;
    EXPECT_EQ(*Got, C.Want);
    EXPECT_STREQ(appIdName(*Got), C.Name);
  }
  const Expected<AppId> Bad = parseAppId("warshall");
  ASSERT_FALSE(Bad.ok());
  EXPECT_EQ(Bad.status().code(), ErrorCode::InvalidArgument);
  EXPECT_NE(Bad.status().message().find("warshall"), std::string::npos);
}

TEST(ParseAppVersion, UnifiedAndHistoricalSpellings) {
  // The unified names.
  EXPECT_EQ(*parseAppVersion(AppId::PageRank, "default"), AppVersion::Default);
  EXPECT_EQ(*parseAppVersion(AppId::PageRank, "invec"), AppVersion::Invec);
  EXPECT_EQ(*parseAppVersion(AppId::Spmv, "csr_serial"),
            AppVersion::CsrSerial);
  EXPECT_EQ(*parseAppVersion(AppId::Agg, "bucket_invec"),
            AppVersion::BucketInvec);
  // Historical per-app spellings keep working.
  EXPECT_EQ(*parseAppVersion(AppId::PageRank, "tiling_and_invec"),
            AppVersion::Invec);
  EXPECT_EQ(*parseAppVersion(AppId::Sssp, "nontiling_and_mask"),
            AppVersion::Mask);
  EXPECT_EQ(*parseAppVersion(AppId::Agg, "linear_serial"),
            AppVersion::Serial);
  EXPECT_EQ(*parseAppVersion(AppId::Spmv, "coo_grouping"),
            AppVersion::Grouping);
}

TEST(ParseAppVersion, RejectsVersionForeignToApp) {
  // Valid spellings that the given app does not implement.
  const Expected<AppVersion> A = parseAppVersion(AppId::PageRank, "csr_serial");
  ASSERT_FALSE(A.ok());
  EXPECT_EQ(A.status().code(), ErrorCode::InvalidArgument);
  EXPECT_FALSE(parseAppVersion(AppId::Mesh, "bucket_invec").ok());
  EXPECT_FALSE(parseAppVersion(AppId::Rbk, "invec").ok());
  // Unknown spelling anywhere.
  EXPECT_FALSE(parseAppVersion(AppId::PageRank, "hyperspeed").ok());
}

//===----------------------------------------------------------------------===//
// Happy path through every application
//===----------------------------------------------------------------------===//

TEST(RunFacade, PageRank) {
  AppRequest R = baseRequest(AppId::PageRank);
  const Expected<AppResult> Res = run(R);
  ASSERT_TRUE(Res.ok()) << Res.status().message();
  EXPECT_EQ(Res->App, AppId::PageRank);
  EXPECT_EQ(Res->VersionName, "tiling_and_invec");
  EXPECT_EQ(Res->Threads, 1);
  EXPECT_EQ(Res->Iterations, 3);
  ASSERT_EQ(Res->Values.size(), static_cast<std::size_t>(Fixtures::get().G.NumNodes));
  // Dangling vertices leak mass, so the total is only bounded by 1.
  double Mass = 0.0;
  for (const float V : Res->Values) {
    EXPECT_GT(V, 0.0f);
    Mass += V;
  }
  EXPECT_GT(Mass, 0.0);
  EXPECT_LT(Mass, 1.0 + 1e-3);
  EXPECT_GT(Res->EdgesProcessed, 0);
}

TEST(RunFacade, PageRank64) {
  AppRequest R = baseRequest(AppId::PageRank64);
  const Expected<AppResult> Res = run(R);
  ASSERT_TRUE(Res.ok()) << Res.status().message();
  EXPECT_EQ(Res->VersionName, "invec");
  ASSERT_EQ(Res->Values64.size(),
            static_cast<std::size_t>(Fixtures::get().G.NumNodes));
  double Mass = 0.0;
  for (const double V : Res->Values64) {
    EXPECT_GT(V, 0.0);
    Mass += V;
  }
  EXPECT_GT(Mass, 0.0);
  EXPECT_LT(Mass, 1.0 + 1e-9);
}

TEST(RunFacade, FrontierApps) {
  for (const AppId App : {AppId::Sssp, AppId::Sswp, AppId::Wcc, AppId::Bfs}) {
    AppRequest R = baseRequest(App);
    R.Options.MaxIterations = 0; // app default (1000)
    R.Source = 1;
    const Expected<AppResult> Res = run(R);
    ASSERT_TRUE(Res.ok()) << Res.status().message();
    EXPECT_EQ(Res->VersionName, "nontiling_and_invec");
    ASSERT_EQ(Res->Values.size(),
              static_cast<std::size_t>(Fixtures::get().G.NumNodes));
    EXPECT_GT(Res->Iterations, 0);
  }
}

TEST(RunFacade, ColdFrontierCallChargesCsrBuildToPrep) {
  // A plain EdgeList: the call builds CSR itself, and that is prep time.
  AppRequest R = baseRequest(AppId::Sssp);
  R.Source = 1;
  const Expected<AppResult> Res = run(R);
  ASSERT_TRUE(Res.ok()) << Res.status().message();
  EXPECT_GT(Res->PrepSeconds, 0.0);

  apps::FrontierOptions O;
  O.Source = 1;
  O.Threads = 1;
  const apps::FrontierResult Cold =
      apps::runFrontier(Fixtures::get().G, apps::FrApp::Sssp,
                        apps::FrVersion::NontilingInvec, O);
  EXPECT_GT(Cold.CsrSeconds, 0.0);
  // A shared adjacency is reused, not rebuilt.
  const graph::Csr Shared = graph::buildCsr(Fixtures::get().G);
  O.SharedCsr = &Shared;
  const apps::FrontierResult Warm =
      apps::runFrontier(Fixtures::get().G, apps::FrApp::Sssp,
                        apps::FrVersion::NontilingInvec, O);
  EXPECT_EQ(Warm.CsrSeconds, 0.0);
  EXPECT_EQ(Warm.Value, Cold.Value);
}

#if CFV_OBS
namespace {

/// How many "frontier:csr_build" spans one cfv::run records.
int csrBuildSpans(const AppRequest &R) {
  obs::Tracer &T = obs::Tracer::instance();
  T.clear();
  T.setEnabled(true);
  const Expected<AppResult> Res = run(R);
  T.setEnabled(false);
  EXPECT_TRUE(Res.ok()) << Res.status().message();
  const std::vector<obs::SpanEvent> Spans = T.collect();
  T.clear();
  return static_cast<int>(
      std::count_if(Spans.begin(), Spans.end(), [](const obs::SpanEvent &E) {
        return E.Name == "frontier:csr_build";
      }));
}

} // namespace

TEST(RunFacade, PreparedFrontierCallDoesNotRebuildCsr) {
  AppRequest R = baseRequest(AppId::Sssp);
  R.Source = 1;
  EXPECT_EQ(csrBuildSpans(R), 1);

  const graph::PreparedGraph P(Fixtures::get().G);
  P.csr(); // memoized before the request
  R.Graph = nullptr;
  R.Prepared = &P;
  EXPECT_EQ(csrBuildSpans(R), 0);
}
#endif

TEST(RunFacade, FacadeMatchesDirectCall) {
  // Same options through the facade and the classic entry point must
  // produce bit-identical output.
  AppRequest R = baseRequest(AppId::PageRank);
  R.Options.Backend = core::BackendChoice::Scalar;
  const Expected<AppResult> Res = run(R);
  ASSERT_TRUE(Res.ok());

  apps::PageRankOptions O;
  O.MaxIterations = 3;
  O.Threads = 1;
  const apps::PageRankResult Direct =
      core::dispatchFor(core::BackendKind::Scalar)
          .PageRank(Fixtures::get().G, apps::PrVersion::TilingInvec, O);
  ASSERT_EQ(Res->Values.size(), Direct.Rank.size());
  for (std::size_t I = 0; I < Direct.Rank.size(); ++I)
    ASSERT_EQ(Res->Values[I], Direct.Rank[I]) << "vertex " << I;
}

TEST(RunFacade, Moldyn) {
  AppRequest R = baseRequest(AppId::Moldyn);
  R.Options.MaxIterations = 2;
  const Expected<AppResult> Res = run(R);
  ASSERT_TRUE(Res.ok()) << Res.status().message();
  EXPECT_GT(Res->Moldyn.Atoms, 0);
  EXPECT_GT(Res->Moldyn.Pairs, 0);
  EXPECT_TRUE(std::isfinite(Res->Moldyn.FinalPotential));
}

TEST(RunFacade, Aggregation) {
  AppRequest R = baseRequest(AppId::Agg);
  const Expected<AppResult> Res = run(R);
  ASSERT_TRUE(Res.ok()) << Res.status().message();
  EXPECT_EQ(Res->VersionName, "linear_invec");
  ASSERT_FALSE(Res->Groups.empty());
  int64_t Cnt = 0;
  for (const auto &G : Res->Groups)
    Cnt += G.Cnt;
  EXPECT_EQ(Cnt, 20000);
}

TEST(RunFacade, ReduceByKey) {
  AppRequest R = baseRequest(AppId::Rbk);
  R.Options.MaxIterations = 2;
  const Expected<AppResult> Res = run(R);
  ASSERT_TRUE(Res.ok()) << Res.status().message();
  // The three contenders in the comparison must agree on the answer.
  EXPECT_NEAR(Res->Rbk.InvecChecksum, Res->Rbk.FusedSerialChecksum,
              1e-4 * (1.0 + std::abs(Res->Rbk.FusedSerialChecksum)));
}

TEST(RunFacade, Spmv) {
  AppRequest R = baseRequest(AppId::Spmv);
  R.Options.MaxIterations = 1;
  const Expected<AppResult> Res = run(R); // null X -> vector of ones
  ASSERT_TRUE(Res.ok()) << Res.status().message();
  ASSERT_EQ(Res->Values.size(),
            static_cast<std::size_t>(Fixtures::get().G.NumNodes));
  double Norm = 0.0;
  for (const float V : Res->Values)
    Norm += double(V) * V;
  EXPECT_GT(Norm, 0.0);
}

TEST(RunFacade, Mesh) {
  AppRequest R = baseRequest(AppId::Mesh);
  R.Options.MaxIterations = 5;
  R.Dt = 0.2f;
  const Expected<AppResult> Res = run(R);
  ASSERT_TRUE(Res.ok()) << Res.status().message();
  ASSERT_EQ(Res->Values.size(),
            static_cast<std::size_t>(Fixtures::get().M.NumCells));
  // Diffusion conserves the total.
  double Total = 0.0;
  for (const float V : Res->Values)
    Total += V;
  EXPECT_NEAR(Total, 50.0, 1e-2);
}

TEST(RunFacade, ThreadsAreResolvedAndReported) {
  AppRequest R = baseRequest(AppId::PageRank);
  R.Options.Threads = 3;
  const Expected<AppResult> Res = run(R);
  ASSERT_TRUE(Res.ok());
  EXPECT_EQ(Res->Threads, 3);
}

TEST(RunFacade, ExplicitBackendDoesNotMutateGlobalDispatch) {
  const core::BackendKind Before = core::dispatch().Kind;
  AppRequest R = baseRequest(AppId::PageRank);
  R.Options.Backend = core::BackendChoice::Scalar;
  const Expected<AppResult> Res = run(R);
  ASSERT_TRUE(Res.ok());
  EXPECT_EQ(Res->Backend, core::BackendKind::Scalar);
  EXPECT_EQ(core::dispatch().Kind, Before);
}

//===----------------------------------------------------------------------===//
// Error reporting
//===----------------------------------------------------------------------===//

TEST(RunFacadeErrors, GraphValidation) {
  AppRequest R = baseRequest(AppId::PageRank);
  R.Graph = nullptr;
  expectInvalid(R, "null graph");

  R = baseRequest(AppId::Sssp);
  R.Graph = &Fixtures::get().Unweighted;
  expectInvalid(R, "sssp needs weights");

  R = baseRequest(AppId::Spmv);
  R.Graph = &Fixtures::get().Unweighted;
  expectInvalid(R, "spmv needs weights");

  R = baseRequest(AppId::Sssp);
  R.Source = -1;
  expectInvalid(R, "negative source");
  R.Source = Fixtures::get().G.NumNodes;
  expectInvalid(R, "source past last vertex");
}

TEST(RunFacadeErrors, VersionForeignToApp) {
  AppRequest R = baseRequest(AppId::PageRank);
  R.Version = AppVersion::CsrSerial;
  expectInvalid(R, "csr_serial for pagerank");

  R = baseRequest(AppId::Rbk);
  R.Version = AppVersion::Invec;
  expectInvalid(R, "rbk only runs the comparison");
}

TEST(RunFacadeErrors, NegativeThreads) {
  AppRequest R = baseRequest(AppId::PageRank);
  R.Options.Threads = -1;
  expectInvalid(R, "negative threads");
}

TEST(RunFacadeErrors, AggregationInputs) {
  AppRequest R = baseRequest(AppId::Agg);
  R.Keys = nullptr;
  expectInvalid(R, "null keys");

  R = baseRequest(AppId::Agg);
  R.Vals = nullptr;
  expectInvalid(R, "null values");

  R = baseRequest(AppId::Agg);
  R.Rows = 0;
  expectInvalid(R, "zero rows");

  R = baseRequest(AppId::Agg);
  R.Cardinality = 0;
  expectInvalid(R, "zero cardinality");

  R = baseRequest(AppId::Agg);
  R.Cardinality = (int64_t(1) << 24) + 1;
  expectInvalid(R, "cardinality past cap");
}

TEST(RunFacadeErrors, WccPastExactFloatLabels) {
  // Labels are vertex ids held in float: 2^24 + 1 rounds onto 2^24, so
  // two components would silently merge.  One edge keeps the input tiny;
  // the 2^24 + 2 vertices exist only as a count.
  graph::EdgeList G;
  G.NumNodes = (int32_t(1) << 24) + 2;
  G.Src = {G.NumNodes - 1};
  G.Dst = {G.NumNodes - 2};
  AppRequest R = baseRequest(AppId::Wcc);
  R.Graph = &G;
  expectInvalid(R, "wcc past 2^24 vertices");

  // Through a prepared handle the check runs before the memoized CSR
  // (or any other per-vertex artifact) is built.
  graph::PreparedGraph P{graph::EdgeList(G)};
  const int64_t Bytes = P.approxBytes();
  R.Graph = nullptr;
  R.Prepared = &P;
  expectInvalid(R, "prepared wcc past 2^24 vertices");
  EXPECT_EQ(P.approxBytes(), Bytes) << "an artifact was built first";
}

TEST(RunFacadeErrors, MoldynAndMeshInputs) {
  AppRequest R = baseRequest(AppId::Moldyn);
  R.Moldyn.Cells = 0;
  expectInvalid(R, "zero cells");

  R = baseRequest(AppId::Mesh);
  R.MeshIn = nullptr;
  expectInvalid(R, "null mesh");

  R = baseRequest(AppId::Mesh);
  R.U0 = nullptr;
  expectInvalid(R, "null initial state");
}
