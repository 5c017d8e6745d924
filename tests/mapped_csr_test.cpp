//===- tests/mapped_csr_test.cpp - Out-of-core CFVM backing ---------------===//
//
// Part of the cfv project: reproduction of Jiang & Agrawal, CGO 2018.
//
//===----------------------------------------------------------------------===//
//
// The CFVM write/open roundtrip bit-for-bit (COO in original order, CSR
// equal to buildCsr), tail residues mod 8/16, the aligned-tail pad
// regression (a final section ending exactly on the 64-byte boundary
// must not lose its last payload byte), truncated/odd-length/garbage
// files as IoError, residency-window eviction and refault accounting
// under tiny CFV_MAP_BYTES budgets, mapped-vs-in-core equality through
// the run facade, and the io.map_fail degradation contract.
//
//===----------------------------------------------------------------------===//

#include "graph/MappedCsr.h"

#include "TestHelpers.h"

#include "core/Api.h"
#include "graph/Generators.h"
#include "graph/Graph.h"
#include "graph/Prepared.h"
#include "resilience/Fault.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <unistd.h>
#include <vector>

using namespace cfv;
using namespace cfv::graph;
using cfv::test::EnvGuard;

namespace {

/// Deletes the CFVM file when the test scope ends.
struct FileGuard {
  std::string Path;
  explicit FileGuard(std::string P) : Path(std::move(P)) {}
  ~FileGuard() { std::remove(Path.c_str()); }
};

std::string tmpPath(const char *Name) { return ::testing::TempDir() + Name; }

/// A deterministic hand-built graph: exact edge count, optional weights.
EdgeList makeGraph(int32_t N, int64_t M, bool Weighted) {
  EdgeList E;
  E.NumNodes = N;
  for (int64_t I = 0; I < M; ++I) {
    E.Src.push_back(static_cast<int32_t>(I % N));
    E.Dst.push_back(static_cast<int32_t>((I * 7 + 3) % N));
    if (Weighted)
      E.Weight.push_back(static_cast<float>(I) + 0.5f);
  }
  return E;
}

/// Write + open + full bit-level roundtrip comparison against \p E.
void expectRoundtrip(const EdgeList &E, const char *Name) {
  const std::string Path = tmpPath(Name);
  FileGuard FG(Path);
  ASSERT_TRUE(MappedCsr::write(Path, E).ok()) << Name;
  Expected<std::shared_ptr<MappedCsr>> M = MappedCsr::open(Path);
  ASSERT_TRUE(M.ok()) << Name << ": " << M.status().toString();
  const MappedCsr &G = **M;
  ASSERT_EQ(G.numNodes(), E.NumNodes) << Name;
  ASSERT_EQ(G.numEdges(), E.numEdges()) << Name;
  ASSERT_EQ(G.isWeighted(), E.isWeighted()) << Name;
  const int64_t Edges = E.numEdges();
  if (Edges > 0) {
    EXPECT_EQ(std::memcmp(G.edgeSrc(), E.Src.data(),
                          static_cast<size_t>(Edges) * sizeof(int32_t)),
              0)
        << Name << ": Src";
    EXPECT_EQ(std::memcmp(G.edgeDst(), E.Dst.data(),
                          static_cast<size_t>(Edges) * sizeof(int32_t)),
              0)
        << Name << ": Dst";
    if (E.isWeighted())
      EXPECT_EQ(std::memcmp(G.edgeWeight(), E.Weight.data(),
                            static_cast<size_t>(Edges) * sizeof(float)),
                0)
          << Name << ": Weight";
  }
  // The CSR sections are the exact buildCsr output.
  const Csr C = buildCsr(E);
  const CsrView V = G.csrView();
  ASSERT_EQ(V.NumNodes, C.NumNodes) << Name;
  EXPECT_EQ(std::memcmp(V.RowBegin, C.RowBegin.data(),
                        (static_cast<size_t>(C.NumNodes) + 1) *
                            sizeof(int64_t)),
            0)
      << Name << ": RowBegin";
  if (Edges > 0) {
    EXPECT_EQ(std::memcmp(V.Col, C.Col.data(),
                          static_cast<size_t>(Edges) * sizeof(int32_t)),
              0)
        << Name << ": Col";
    if (E.isWeighted())
      EXPECT_EQ(std::memcmp(V.Weight, C.Weight.data(),
                            static_cast<size_t>(Edges) * sizeof(float)),
                0)
          << Name << ": CsrWeight";
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// Roundtrip
//===----------------------------------------------------------------------===//

TEST(MappedCsr, RoundtripWeightedAndUnweighted) {
  expectRoundtrip(genRmat(8, 2000, 42, 16.0f), "rt_rmat_w.cfvm");
  expectRoundtrip(genUniform(8, 2000, 43), "rt_uniform.cfvm");
}

TEST(MappedCsr, TailResiduesMod8And16) {
  // Every residue class the 8- and 16-lane kernels care about, plus the
  // section-alignment residues (64-byte sections hold 16 i32 / f32).
  for (const int64_t M : {int64_t(1), int64_t(7), int64_t(8), int64_t(9),
                          int64_t(15), int64_t(16), int64_t(17), int64_t(31),
                          int64_t(32), int64_t(33), int64_t(48)}) {
    const std::string Name =
        "rt_tail_" + std::to_string(M) + ".cfvm";
    expectRoundtrip(makeGraph(8, M, /*Weighted=*/true), Name.c_str());
    expectRoundtrip(makeGraph(8, M, /*Weighted=*/false),
                    ("u" + Name).c_str());
  }
}

TEST(MappedCsr, AlignedTailKeepsLastPayloadByte) {
  // Regression: with M = 16 weighted edges every payload section is
  // exactly 64 bytes, so the final section ends ON the alignment
  // boundary and Total == its end.  The writer's zero-pad used to land
  // at Total - 1 unconditionally, turning the last weight's high byte to
  // zero (64.0f -> FLT_MIN).  The last weight must survive verbatim.
  EdgeList E = makeGraph(8, 16, /*Weighted=*/true);
  E.Weight.back() = 64.0f;
  const std::string Path = tmpPath("rt_aligned_tail.cfvm");
  FileGuard FG(Path);
  ASSERT_TRUE(MappedCsr::write(Path, E).ok());
  Expected<std::shared_ptr<MappedCsr>> M = MappedCsr::open(Path);
  ASSERT_TRUE(M.ok()) << M.status().toString();
  EXPECT_EQ((*M)->edgeWeight()[15], 64.0f);
  expectRoundtrip(E, "rt_aligned_tail2.cfvm");
}

TEST(MappedCsr, EmptyGraphRoundtrips) {
  EdgeList E;
  E.NumNodes = 4;
  expectRoundtrip(E, "rt_empty.cfvm");
}

//===----------------------------------------------------------------------===//
// Malformed files
//===----------------------------------------------------------------------===//

TEST(MappedCsr, TruncatedAndOddLengthFilesAreIoError) {
  const EdgeList E = makeGraph(16, 100, /*Weighted=*/true);
  const std::string Path = tmpPath("trunc.cfvm");
  FileGuard FG(Path);
  ASSERT_TRUE(MappedCsr::write(Path, E).ok());
  const Expected<std::shared_ptr<MappedCsr>> Full = MappedCsr::open(Path);
  ASSERT_TRUE(Full.ok());
  const int64_t Total = (*Full)->mappedBytes();

  // One byte short of the layout, mid-file, header-only, odd scraps,
  // empty: all IoError, never a crash.
  for (const int64_t Len : {Total - 1, Total / 2, int64_t(32), int64_t(37),
                            int64_t(5), int64_t(0)}) {
    ASSERT_EQ(truncate(Path.c_str(), static_cast<off_t>(Len)), 0);
    const Expected<std::shared_ptr<MappedCsr>> M = MappedCsr::open(Path);
    EXPECT_FALSE(M.ok()) << "length " << Len;
    if (!M.ok())
      EXPECT_EQ(M.status().code(), ErrorCode::IoError) << "length " << Len;
  }
}

TEST(MappedCsr, BadMagicVersionAndCountsRejected) {
  const EdgeList E = makeGraph(8, 20, /*Weighted=*/false);
  const std::string Path = tmpPath("badhdr.cfvm");
  FileGuard FG(Path);

  auto corrupt = [&](int64_t Off, const void *Data, size_t Len) {
    ASSERT_TRUE(MappedCsr::write(Path, E).ok());
    std::FILE *F = std::fopen(Path.c_str(), "r+b");
    ASSERT_NE(F, nullptr);
    ASSERT_EQ(std::fseek(F, static_cast<long>(Off), SEEK_SET), 0);
    ASSERT_EQ(std::fwrite(Data, 1, Len, F), Len);
    std::fclose(F);
    EXPECT_FALSE(MappedCsr::open(Path).ok());
  };

  corrupt(0, "JUNK", 4); // magic
  const uint32_t BadVersion = 999;
  corrupt(4, &BadVersion, sizeof(BadVersion));
  const int64_t BadNodes = -1;
  corrupt(16, &BadNodes, sizeof(BadNodes));
  // Edge count far past the file: the layout check catches it.
  const int64_t HugeEdges = int64_t(1) << 40;
  corrupt(24, &HugeEdges, sizeof(HugeEdges));

  EXPECT_FALSE(MappedCsr::open("/nonexistent/nope.cfvm").ok());
}

//===----------------------------------------------------------------------===//
// Residency window
//===----------------------------------------------------------------------===//

TEST(ResidencyWindowTest, LruEvictionAndRefaultAccounting) {
  std::vector<char> Buf(16 * 4096);
  ResidencyWindow W(Buf.data(), static_cast<int64_t>(Buf.size()),
                    /*BudgetBytes=*/2 * 4096, /*SegmentBytes=*/4096);
  auto seg = [](int64_t S) { return S * 4096; };

  W.touch(seg(0), 1);
  W.touch(seg(1), 1);
  EXPECT_EQ(W.advised(), 2);
  EXPECT_EQ(W.evictions(), 0);

  // Refresh 0, then admit 2: the LRU victim must be 1, not 0.
  W.touch(seg(0), 1);
  W.touch(seg(2), 1);
  EXPECT_EQ(W.advised(), 3);
  EXPECT_EQ(W.evictions(), 1);
  W.touch(seg(0), 1); // still resident: no refault
  EXPECT_EQ(W.refaults(), 0);
  W.touch(seg(1), 1); // evicted above: refault
  EXPECT_EQ(W.refaults(), 1);

  // Streaming the whole range cycles the window: every non-resident
  // segment is (re-)advised and the LRU churns.  (Refaults re-advise,
  // so the exact count depends on the interleaving; bound it instead.)
  W.touch(0, static_cast<int64_t>(Buf.size()));
  EXPECT_GE(W.advised(), 17);
  EXPECT_GE(W.evictions(), 14);
  EXPECT_GE(W.refaults(), 2);
}

TEST(ResidencyWindowTest, BudgetCoveringEverythingNeverEvicts) {
  std::vector<char> Buf(8 * 4096);
  ResidencyWindow W(Buf.data(), static_cast<int64_t>(Buf.size()),
                    /*BudgetBytes=*/static_cast<int64_t>(Buf.size()),
                    /*SegmentBytes=*/4096);
  for (int Pass = 0; Pass < 3; ++Pass)
    W.touch(0, static_cast<int64_t>(Buf.size()));
  EXPECT_EQ(W.advised(), 8);
  EXPECT_EQ(W.evictions(), 0);
  EXPECT_EQ(W.refaults(), 0);
}

TEST(MappedCsr, WindowOnlyUnderPartialBudget) {
  const EdgeList E = makeGraph(64, 20000, /*Weighted=*/true);
  const std::string Path = tmpPath("window.cfvm");
  FileGuard FG(Path);
  ASSERT_TRUE(MappedCsr::write(Path, E).ok());

  {
    // No budget: no window, counters stay zero.
    EnvGuard Env("CFV_MAP_BYTES", nullptr);
    Expected<std::shared_ptr<MappedCsr>> M = MappedCsr::open(Path);
    ASSERT_TRUE(M.ok());
    (*M)->adviseEdgeRange(0, (*M)->numEdges());
    EXPECT_EQ((*M)->windowAdvised(), 0);
  }
  {
    // Tiny budget: streaming the COO sections advises, evicts, and
    // refaults on the second pass.
    EnvGuard Env("CFV_MAP_BYTES", "8192");
    Expected<std::shared_ptr<MappedCsr>> M = MappedCsr::open(Path);
    ASSERT_TRUE(M.ok());
    const int64_t Edges = (*M)->numEdges();
    for (int64_t Lo = 0; Lo < Edges; Lo += 1024)
      (*M)->adviseEdgeRange(Lo, std::min(Edges, Lo + 1024));
    EXPECT_GT((*M)->windowAdvised(), 0);
    EXPECT_GT((*M)->windowEvictions(), 0);
    (*M)->adviseEdgeRange(0, 1024);
    (*M)->adviseCsrRange(0, Edges);
    EXPECT_GT((*M)->windowRefaults(), 0);
  }
  {
    // Budget covering the whole file: no window needed.
    EnvGuard Env("CFV_MAP_BYTES", "1073741824");
    Expected<std::shared_ptr<MappedCsr>> M = MappedCsr::open(Path);
    ASSERT_TRUE(M.ok());
    (*M)->adviseEdgeRange(0, (*M)->numEdges());
    EXPECT_EQ((*M)->windowAdvised(), 0);
  }
}

//===----------------------------------------------------------------------===//
// Mapped execution through the facade
//===----------------------------------------------------------------------===//

namespace {

AppResult runOnce(AppId App, int Iters, const EdgeList *G,
                  const PreparedGraph *Prep, const MappedCsr *Mapped) {
  AppRequest R;
  R.App = App;
  R.Version = AppVersion::Default;
  R.Options.MaxIterations = Iters;
  R.Graph = G;
  R.Prepared = Prep;
  R.Mapped = Mapped;
  Expected<AppResult> Res = run(R);
  EXPECT_TRUE(Res.ok()) << appIdName(App) << ": " << Res.status().toString();
  return Res.ok() ? std::move(*Res) : AppResult{};
}

} // namespace

TEST(MappedCsr, MappedRunsBitIdenticalToInCore) {
  const EdgeList E = genRmat(10, 20000, 7, 16.0f);
  const std::string Path = tmpPath("exec.cfvm");
  FileGuard FG(Path);
  ASSERT_TRUE(MappedCsr::write(Path, E).ok());
  // A small budget exercises the window during execution too.
  EnvGuard Env("CFV_MAP_BYTES", "65536");
  Expected<std::shared_ptr<MappedCsr>> M = MappedCsr::open(Path);
  ASSERT_TRUE(M.ok()) << M.status().toString();

  const struct {
    AppId App;
    int Iters;
  } Cases[] = {{AppId::PageRank, 3}, {AppId::Spmv, 1}, {AppId::Sssp, 0}};
  for (const auto &C : Cases) {
    const AppResult InCore = runOnce(C.App, C.Iters, &E, nullptr, nullptr);
    const AppResult Mapped = runOnce(C.App, C.Iters, &E, nullptr, M->get());
    EXPECT_FALSE(InCore.UsedMappedCsr) << appIdName(C.App);
    EXPECT_TRUE(Mapped.UsedMappedCsr) << appIdName(C.App);
    ASSERT_EQ(Mapped.Values.size(), InCore.Values.size()) << appIdName(C.App);
    // Pointer substitution: same edges, same order, same floats.
    EXPECT_EQ(std::memcmp(Mapped.Values.data(), InCore.Values.data(),
                          InCore.Values.size() * sizeof(float)),
              0)
        << appIdName(C.App);
  }
}

TEST(MappedCsr, PreparedAutoWiresUnderBudget) {
  PreparedGraph P(genRmat(9, 8000, 11, 16.0f));
  {
    // Budget off: the facade stays in-core even with a Prepared handle.
    EnvGuard Env("CFV_MAP_BYTES", nullptr);
    const AppResult R = runOnce(AppId::PageRank, 3, nullptr, &P, nullptr);
    EXPECT_FALSE(R.UsedMappedCsr);
  }
  {
    EnvGuard Env("CFV_MAP_BYTES", "65536");
    const AppResult R = runOnce(AppId::PageRank, 3, nullptr, &P, nullptr);
    EXPECT_TRUE(R.UsedMappedCsr);
    const AppResult Flat = runOnce(AppId::PageRank, 3, &P.edges(), nullptr,
                                   nullptr);
    ASSERT_EQ(R.Values.size(), Flat.Values.size());
    EXPECT_EQ(std::memcmp(R.Values.data(), Flat.Values.data(),
                          Flat.Values.size() * sizeof(float)),
              0);
  }
}

//===----------------------------------------------------------------------===//
// io.map_fail degradation
//===----------------------------------------------------------------------===//

#if CFV_FAULTS

namespace {

/// Arms io.map_fail:always for a scope; disarms on exit.
struct MapFailGuard {
  MapFailGuard() {
    fault::Plan P;
    P.Rules[static_cast<int>(fault::Point::IoMapFail)].M =
        fault::Rule::Mode::Always;
    fault::Injector::instance().configure(P);
  }
  ~MapFailGuard() { fault::Injector::instance().disarm(); }
};

} // namespace

TEST(MappedCsr, MapFailFaultMakesOpenFail) {
  const EdgeList E = makeGraph(8, 50, /*Weighted=*/false);
  const std::string Path = tmpPath("mapfail.cfvm");
  FileGuard FG(Path);
  ASSERT_TRUE(MappedCsr::write(Path, E).ok());
  {
    MapFailGuard Fail;
    const Expected<std::shared_ptr<MappedCsr>> M = MappedCsr::open(Path);
    ASSERT_FALSE(M.ok());
    EXPECT_EQ(M.status().code(), ErrorCode::IoError);
  }
  EXPECT_TRUE(MappedCsr::open(Path).ok()); // disarmed: fine again
}

TEST(MappedCsr, MapFailDegradesToInCoreWithIdenticalAnswers) {
  EnvGuard Env("CFV_MAP_BYTES", "65536");
  const EdgeList E = genRmat(9, 8000, 13, 16.0f);
  const AppResult Ref = runOnce(AppId::PageRank, 3, &E, nullptr, nullptr);

  PreparedGraph P{EdgeList(E)};
  {
    MapFailGuard Fail;
    // The mapping attempt fails; the run degrades to in-core and the
    // answer is the flat one, bit for bit.
    EXPECT_EQ(P.mappedCsr(), nullptr);
    const AppResult R = runOnce(AppId::PageRank, 3, nullptr, &P, nullptr);
    EXPECT_FALSE(R.UsedMappedCsr);
    ASSERT_EQ(R.Values.size(), Ref.Values.size());
    EXPECT_EQ(std::memcmp(R.Values.data(), Ref.Values.data(),
                          Ref.Values.size() * sizeof(float)),
              0);
  }
  // The failure is memoized per PreparedGraph: one attempt per dataset.
  EXPECT_EQ(P.mappedCsr(), nullptr);
  // A fresh PreparedGraph maps fine once the fault clears.
  PreparedGraph Q{EdgeList(E)};
  EXPECT_NE(Q.mappedCsr(), nullptr);
}

#endif // CFV_FAULTS
