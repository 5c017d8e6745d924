//===- perfbench/src/Batch.cpp - cold-1t ----------------------------------===//
//
// The batch workload.  It times cfv::run calls of the six batch apps in
// round-robin rounds (one call per app per round, three for spmv) spread
// over the whole run, so host drift lands on every app alike, and reports
// per-app medians.
//
//===----------------------------------------------------------------------===//

#include "Batch.h"

#include "Reference.h"
#include "graph/Generators.h"
#include "graph/MappedCsr.h"
#include "inspector/Tiling.h"
#include "obs/Metrics.h"
#include "pattern/Classify.h"
#include "workload/KeyGen.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <sys/stat.h>
#include <unistd.h>

using namespace cfv;

namespace perfbench {

namespace {

// Input sizes.  The generators take the stand-ins' skew parameters from
// graph/Datasets.cpp; 2^17 and 2^15 vertices keep the per-vertex arrays
// within one core's 2 MiB L2, and the edge counts keep every call at
// ~0.1 s or more with edges processed within a few percent across seeds.
constexpr int kPrBits = 17; ///< pagerank + spmv graph (higgs, weighted)
constexpr int64_t kPrEdges = 8000000;
constexpr int kSsspBits = 15; ///< pokec
constexpr int64_t kSsspEdges = 4500000;
constexpr int kWccBits = 17; ///< clustered amazon, mean D1 ~4
constexpr int64_t kWccEdges = 1600000;
constexpr int64_t kAggRows = 8000000; ///< heavy-hitter keys
constexpr int32_t kAggGroups = 1 << 16;
constexpr int kMoldynCells = 12;
constexpr int kMoldynSteps = 20;

/// Rounds a run makes however short its --seconds.
constexpr int kMinRounds = 4;

double engineLaunches() {
  for (const obs::MetricSample &S : obs::MetricsRegistry::instance().collect())
    if (S.Name == "cfv_engine_runs_total")
      return S.Value;
  return 0.0;
}

} // namespace

//===----------------------------------------------------------------------===//
// Inputs and cases
//===----------------------------------------------------------------------===//

std::unique_ptr<ColdInputs> setupCold(const Args &A, Recorder &Rec,
                                      int64_t Op, SetupTimes &T) {
  const double T0 = now();
  const int Root = Rec.add("bench.setup", T0, T0, -1, Op);
  auto In = std::make_unique<ColdInputs>();
  const auto Gen = [&](graph::EdgeList &G, auto &&Make) {
    const double G0 = now();
    G = Make();
    const double G1 = now();
    Rec.add("graph.gen", G0, G1, Root, Op);
    T.Gen += G1 - G0;
    T.PerGraphGen.push_back(G1 - G0);
  };
  Gen(In->Pr, [&] {
    return graph::genRmat(kPrBits, kPrEdges, subSeed(A.Seed, 1), 64.0f, 0.62,
                          0.17, 0.17);
  });
  Gen(In->Sssp, [&] {
    return graph::genRmat(kSsspBits, kSsspEdges, subSeed(A.Seed, 2), 64.0f,
                          0.68, 0.14, 0.14);
  });
  Gen(In->Wcc, [&] {
    return graph::genClustered(kWccBits, kWccEdges, subSeed(A.Seed, 3), 8,
                               0.05);
  });
  const double K0 = now();
  In->Keys = workload::genKeys(workload::KeyDist::HeavyHitter, kAggRows,
                               kAggGroups, subSeed(A.Seed, 4));
  In->Vals = workload::genValues(kAggRows, subSeed(A.Seed, 5));
  Rec.add("workload.gen", K0, now(), Root, Op);
  T.Total = now() - T0;
  Rec.setEnd(Root, T0 + T.Total);
  return In;
}

bool makeColdCases(ColdInputs &In, std::vector<Case> &Cs) {
  const auto Base = [](const char *Name, AppId App,
                       const graph::EdgeList *G) {
    Case C{Name, {}, {}};
    C.Req.App = App;
    C.Req.Graph = G;
    return C;
  };
  const Coo PrCoo = cooOf(In.Pr);

  Case Pr = Base("pagerank", AppId::PageRank, &In.Pr);
  const apps::PageRankOptions PrOpts;
  auto PrRef = std::make_shared<std::map<int, std::vector<double>>>(
      refPageRankNear(PrCoo, PrOpts.Tolerance, PrOpts.MaxIterations));
  Pr.Check = [PrRef](const AppResult &R) {
    const auto It = PrRef->find(R.Iterations);
    if (It == PrRef->end())
      return "pagerank: stopped after " + std::to_string(R.Iterations) +
             " rounds, the reference after " +
             std::to_string(std::next(PrRef->begin())->first);
    return checkPageRank(R, It->second);
  };
  Cs.push_back(std::move(Pr));

  Case Ss = Base("sssp", AppId::Sssp, &In.Sssp);
  auto SsRef =
      std::make_shared<std::vector<double>>(refDijkstra(cooOf(In.Sssp), 0));
  Ss.Check = [SsRef](const AppResult &R) { return checkSssp(R, *SsRef); };
  Cs.push_back(std::move(Ss));

  Case Wc = Base("wcc", AppId::Wcc, &In.Wcc);
  auto WcRef = std::make_shared<std::vector<int32_t>>(
      refMinReachingLabel(cooOf(In.Wcc)));
  Wc.Check = [WcRef](const AppResult &R) { return checkLabels(R, *WcRef); };
  Cs.push_back(std::move(Wc));

  // spmv: one pass, as a cold caller makes it.  At ~0.08 s it is the
  // shortest call, and its calls scatter the most (0.055-0.10 s within one
  // run), so it makes three calls per round: three times the samples for
  // its median, whose spread over ten runs fell from 31% to 18% of the
  // median against one call per round, the two interleaved.
  Case Sp = Base("spmv", AppId::Spmv, &In.Pr);
  Sp.Req.Options.MaxIterations = 1;
  Sp.CallsPerRound = 3;
  auto SpAbs = std::make_shared<std::vector<double>>();
  auto SpRef = std::make_shared<std::vector<double>>(refSpmv(PrCoo, 1, *SpAbs));
  Sp.Check = [SpRef, SpAbs](const AppResult &R) {
    return checkSpmv(R, *SpRef, *SpAbs);
  };
  Cs.push_back(std::move(Sp));

  Case Ag = Base("agg", AppId::Agg, nullptr);
  Ag.Req.Keys = In.Keys.data();
  Ag.Req.Vals = In.Vals.data();
  Ag.Req.Rows = kAggRows;
  Ag.Req.Cardinality = kAggGroups;
  auto AgRef = std::make_shared<std::vector<GroupRef>>(
      refGroupBy(In.Keys.data(), In.Vals.data(), kAggRows));
  Ag.Check = [AgRef](const AppResult &R) { return checkGroups(R, *AgRef); };
  Cs.push_back(std::move(Ag));

  Case Md = Base("moldyn", AppId::Moldyn, nullptr);
  Md.Req.Options.MaxIterations = kMoldynSteps;
  Md.Req.Moldyn.Cells = kMoldynCells;
  AppRequest Serial = Md.Req;
  Serial.Version = AppVersion::Serial;
  Expected<AppResult> Ref = cfv::run(Serial);
  if (!Ref.ok()) {
    std::fprintf(stderr, "cfvbench: moldyn reference: %s\n",
                 Ref.status().toString().c_str());
    return false;
  }
  In.MoldynSerial = std::move(*Ref);
  const AppResult *MdRef = &In.MoldynSerial;
  Md.Check = [MdRef](const AppResult &R) { return checkMoldyn(R, *MdRef); };
  Cs.push_back(std::move(Md));
  return true;
}

//===----------------------------------------------------------------------===//
// Rounds and reporting
//===----------------------------------------------------------------------===//

bool warmUp(std::vector<Case> &Cases) {
  for (Case &C : Cases) {
    Expected<AppResult> R = cfv::run(C.Req);
    if (!R.ok()) {
      std::fprintf(stderr, "cfvbench: warm-up %s: %s\n", C.App.c_str(),
                   R.status().toString().c_str());
      return false;
    }
    if (std::string Why = C.Check(*R); !Why.empty())
      std::fprintf(stderr, "cfvbench: warm-up %s: %s\n", C.App.c_str(),
                   Why.c_str());
  }
  return true;
}

void runRound(std::vector<Case> &Cases, const Args &A, bool Traced,
              Recorder &Rec, int64_t &Op, Report &Out, LoopStats &L) {
  const bool WasOn = Rec.enabled();
  Rec.setEnabled(Traced);
  const double L0 = Traced ? engineLaunches() : 0.0;
  for (Case &C : Cases)
    for (int Call = 0; Call < C.CallsPerRound; ++Call) {
      const double T0 = now();
      Expected<AppResult> R = cfv::run(C.Req);
      const double T1 = now();
      const int64_t ThisOp = ++Op;
      const bool Corrupt = Out.Attempted == A.CorruptOp;
      ++Out.Attempted;
      if (!R.ok()) {
        ++Out.Failed;
        std::fprintf(stderr, "cfvbench: %s failed: %s\n", C.App.c_str(),
                     R.status().toString().c_str());
        continue;
      }
      if (Traced) {
        // The root span's self time is the call's unaccounted remainder;
        // prep and compute are placed retroactively at its two ends.
        const int Root = Rec.add("core." + C.App, T0, T1, -1, ThisOp);
        const double Wall = T1 - T0;
        const double Cmp = std::min(R->ComputeSeconds, Wall);
        const double Prep = std::min(R->PrepSeconds, Wall - Cmp);
        Rec.add("core." + C.App + ".prep", T0, T0 + Prep, Root, ThisOp);
        Rec.add("apps." + C.App + ".compute", T1 - Cmp, T1, Root, ThisOp);
        ++L.TracedCalls;
      }
      if (Corrupt)
        corrupt(*R);
      Sample S;
      if (std::string Why = C.Check(*R); !Why.empty()) {
        ++Out.Failed;
        std::fprintf(stderr, "cfvbench: %s answer rejected: %s\n",
                     C.App.c_str(), Why.c_str());
      } else {
        S.Correct = true;
      }
      S.Wall = T1 - T0;
      S.Traced = Traced;
      S.Meta = std::move(*R);
      S.Meta.Values = {};
      S.Meta.Groups = {};
      L.Samples[C.App].push_back(std::move(S));
    }
  if (Traced)
    L.Launches += engineLaunches() - L0;
  if (A.Trace)
    L.HostRef.push_back(hostRefSeconds());
  Rec.setEnabled(WasOn);
}

void reportAppLayers(const std::string &App, const std::vector<Sample> &S,
                     const Recorder &Rec, Report &Out) {
  std::vector<double> D1, Alg2, Iters, Edges, Ns, Util;
  for (const Sample &X : S) {
    if (!X.Traced)
      continue;
    const AppResult &M = X.Meta;
    D1.push_back(M.MeanD1);
    Alg2.push_back(M.UsedAlg2 ? 1.0 : 0.0);
    Iters.push_back(M.Iterations);
    Edges.push_back(static_cast<double>(M.EdgesProcessed));
    Ns.push_back(M.EdgesProcessed ? 1e9 * M.ComputeSeconds / M.EdgesProcessed
                                  : 0.0);
    Util.push_back(M.SimdUtil);
  }
  Out.set("core." + App + ".prep_s", Rec.medianSelf("core." + App + ".prep"),
          "s");
  Out.set("core." + App + ".other_s", Rec.medianSelf("core." + App), "s");
  Out.set("core." + App + ".mean_d1", median(D1), "lanes");
  Out.set("core." + App + ".alg2", median(Alg2), "frac");
  Out.set("apps." + App + ".compute_s",
          Rec.medianSelf("apps." + App + ".compute"), "s");
  Out.set("apps." + App + ".iterations", median(Iters), "count");
  Out.set("apps." + App + ".edges", median(Edges), "count");
  Out.set("apps." + App + ".ns_per_edge", median(Ns), "ns");
  Out.set("apps." + App + ".simd_util", median(Util), "frac");
}

void reportTileMix(const LoopStats &L, Report &Out) {
  const char *Names[5] = {"conflict_free", "monotone", "small_alphabet",
                          "hot_bucket", "general"};
  int64_t Tiles[5] = {};
  for (const auto &[App, S] : L.Samples)
    if (!S.empty())
      for (int C = 0; C < 5; ++C)
        Tiles[C] += S.back().Meta.PatternTiles[C];
  int64_t All = 0;
  for (int C = 0; C < 5; ++C) {
    Out.set(std::string("pattern.tiles.") + Names[C],
            static_cast<double>(Tiles[C]), "count");
    All += Tiles[C];
  }
  Out.set("pattern.specialized_frac",
          All ? static_cast<double>(All - Tiles[4]) / All : 0.0, "frac");
}

void tracedUntraced(const std::vector<Sample> &S, double &Traced,
                    double &Untraced) {
  std::vector<double> T, U;
  for (const Sample &X : S)
    (X.Traced ? T : U).push_back(X.Wall);
  Traced = median(T);
  Untraced = median(U);
}

//===----------------------------------------------------------------------===//
// Layer probes
//===----------------------------------------------------------------------===//

Coo cooOf(const graph::EdgeList &G) {
  return {G.NumNodes, G.numEdges(), G.Src.data(), G.Dst.data(),
          G.Weight.empty() ? nullptr : G.Weight.data()};
}

void probeLayers(const std::vector<const graph::EdgeList *> &CsrGraphs,
                 const Coo &Tiled, Recorder &Rec, int64_t &Op,
                 ProbeTimes &P) {
  double CsrSum = 0;
  for (const graph::EdgeList *G : CsrGraphs) {
    const double T0 = now();
    const graph::Csr Csr = graph::buildCsr(*G);
    const double T1 = now();
    Rec.add("graph.csr", T0, T1, -1, ++Op);
    CsrSum += T1 - T0;
  }
  P.Csr.push_back(CsrSum);

  const double T0 = now();
  const inspector::TilingResult T = inspector::tileByDestination(
      Tiled.Dst, Tiled.M, Tiled.N, apps::PageRankOptions().TileBlockBits);
  const double T1 = now();
  const pattern::PatternResult PT = pattern::classifyTiling(T, Tiled.Dst);
  const pattern::PatternResult PS = pattern::classifyStream(Tiled.Src, Tiled.M);
  const double T2 = now();
  Rec.add("inspector.tiling", T0, T1, -1, ++Op);
  Rec.add("pattern.classify", T1, T2, -1, ++Op);
  P.Tiling.push_back(T1 - T0);
  P.Classify.push_back(T2 - T1);
  P.Tiles = T.numTiles();
}

void probeMapped(const graph::EdgeList &G, const std::string &Path,
                 Recorder &Rec, int64_t &Op, Report &Out, MapProbe &P) {
  const std::vector<int32_t> Ref = refMinReachingLabel(cooOf(G));
  const double T0 = now();
  const Status St = graph::MappedCsr::write(Path, G);
  const double T1 = now();
  struct stat Sb {};
  ::stat(Path.c_str(), &Sb);
  // The budget is read when the file is mapped.
  ::setenv("CFV_MAP_BYTES", std::to_string(Sb.st_size / 4).c_str(), 1);
  Expected<std::shared_ptr<graph::MappedCsr>> M = graph::MappedCsr::open(Path);
  const double T2 = now();
  ::unsetenv("CFV_MAP_BYTES");
  ::unlink(Path.c_str()); // the mapping keeps the file alive
  ++Out.Attempted;
  if (!St.ok() || !M.ok()) {
    ++Out.Failed;
    std::fprintf(stderr, "cfvbench: mapped probe: %s\n",
                 (St.ok() ? M.status() : St).toString().c_str());
    return;
  }
  Rec.add("graph.cfvm_write", T0, T1, -1, ++Op);
  Rec.add("graph.map_open", T1, T2, -1, ++Op);
  P.WriteS = T1 - T0;
  P.OpenS = T2 - T1;

  // The app is handed a hollow edge list: the edges come from the mapping.
  graph::EdgeList Hollow;
  Hollow.NumNodes = G.NumNodes;
  AppRequest Req;
  Req.App = AppId::Wcc;
  Req.Graph = &Hollow;
  Req.Mapped = M->get();
  for (int I = 0; I < kProbeRepeats; ++I) {
    const int64_t E0 = (*M)->windowEvictions(), F0 = (*M)->windowRefaults();
    const double C0 = now();
    Expected<AppResult> R = cfv::run(Req);
    const double C1 = now();
    Rec.add("graph.mapped_wcc", C0, C1, -1, ++Op);
    P.CallS.push_back(C1 - C0);
    ++Out.Attempted;
    const std::string Why = !R.ok()            ? R.status().toString()
                            : !R->UsedMappedCsr ? "ran in core"
                                                : checkLabels(*R, Ref);
    if (!Why.empty()) {
      ++Out.Failed;
      std::fprintf(stderr, "cfvbench: mapped wcc rejected: %s\n",
                   Why.c_str());
    }
    P.Evictions += static_cast<double>((*M)->windowEvictions() - E0);
    P.Refaults += static_cast<double>((*M)->windowRefaults() - F0);
  }
  P.Evictions /= kProbeRepeats;
  P.Refaults /= kProbeRepeats;
}

//===----------------------------------------------------------------------===//
// cold-1t
//===----------------------------------------------------------------------===//

int runBatch(const Args &A, Report &Out) {
  Recorder Rec;
  Rec.setEnabled(A.Trace);
  const double Origin = now();
  int64_t Op = 0;

  // Set up several times and keep the last; setup_s is the median.
  constexpr int kSetups = 3;
  std::vector<SetupTimes> Setups;
  std::unique_ptr<ColdInputs> In;
  for (int S = 0; S < kSetups; ++S) {
    In.reset();
    SetupTimes T;
    In = setupCold(A, Rec, ++Op, T);
    Setups.push_back(T);
  }

  std::vector<Case> Cases;
  if (!makeColdCases(*In, Cases))
    return 1;
  // peak_rss_mb covers the calls and the inputs they are handed, not the
  // generation or the references above.
  if (!resetPeakRss()) {
    std::fprintf(stderr, "cfvbench: cannot reset the peak resident set\n");
    return 1;
  }
  if (!warmUp(Cases))
    return 1;
  LoopStats L;
  const double Start = now();
  for (int Round = 0; Round < kMinRounds || now() - Start < A.Seconds;
       ++Round)
    // The traced run alternates untraced and traced rounds, so tracing
    // cost is measured within one process instead of across two.
    runRound(Cases, A, A.Trace && Round % 2 == 1, Rec, Op, Out, L);
  const double PeakRss = peakRssMb();

  std::vector<double> SetupS, Gen, PerGraph;
  for (const SetupTimes &T : Setups) {
    SetupS.push_back(T.Total);
    Gen.push_back(T.Gen);
    PerGraph.insert(PerGraph.end(), T.PerGraphGen.begin(),
                    T.PerGraphGen.end());
  }

  if (!A.Trace) {
    std::vector<double> All;
    double CallSeconds = 0;
    int64_t Correct = 0;
    Out.set("setup_s", median(SetupS), "s");
    Out.set("peak_rss_mb", PeakRss, "MB");
    for (const char *App : kBatchApps) {
      std::vector<double> W;
      for (const Sample &S : L.Samples[App]) {
        W.push_back(S.Wall);
        All.push_back(S.Wall);
        CallSeconds += S.Wall;
        Correct += S.Correct;
      }
      Out.set(std::string(App) + "_s", median(W), "s");
    }
    // On a batch workload each call is one request: calls answered
    // correctly per second of call time, and call latency over the mix.
    Out.set("serve_rps", CallSeconds > 0 ? Correct / CallSeconds : 0.0,
            "1/s");
    Out.set("req_p50_ms", 1e3 * quantile(All, 0.5), "ms");
    Out.set("req_p90_ms", 1e3 * quantile(All, 0.9), "ms");
    return 0;
  }

  ProbeTimes Probes;
  for (int R = 0; R < kProbeRepeats; ++R)
    probeLayers({&In->Sssp, &In->Wcc}, cooOf(In->Pr), Rec, Op, Probes);
  MapProbe Map;
  probeMapped(In->Wcc, A.WorkDir + "/probe.cfvm", Rec, Op, Out, Map);

  const double Traced = L.TracedCalls > 0 ? L.TracedCalls : 1.0;
  Out.set("graph.gen_s", median(Gen), "s");
  Out.set("graph.csr_s", median(Probes.Csr), "s");
  Out.set("graph.cfvm_write_s", Map.WriteS, "s");
  Out.set("graph.map_open_s", Map.OpenS, "s");
  Out.set("graph.map_evictions", Map.Evictions, "count");
  Out.set("graph.map_refaults", Map.Refaults, "count");
  Out.set("graph.mapped_wcc_s", median(Map.CallS), "s");
  // A batch user's cold load is generating the dataset in process (what
  // cfv_run reports as load_seconds).
  Out.set("graph.cold_load_ms", 1e3 * median(PerGraph), "ms");
  Out.set("inspector.tiling_s", median(Probes.Tiling), "s");
  Out.set("inspector.tiles", static_cast<double>(Probes.Tiles), "count");
  Out.set("pattern.classify_s", median(Probes.Classify), "s");
  reportTileMix(L, Out);

  double TracedSum = 0, UntracedSum = 0;
  int Threads = 0;
  for (const char *App : kBatchApps) {
    reportAppLayers(App, L.Samples[App], Rec, Out);
    double T = 0, U = 0;
    tracedUntraced(L.Samples[App], T, U);
    TracedSum += T;
    UntracedSum += U;
    for (const Sample &S : L.Samples[App])
      Threads = std::max(Threads, S.Meta.Threads);
  }
  Out.set("core.engine.threads", Threads, "count");
  Out.set("core.engine.launches", L.Launches / Traced, "count");
  // No serving layer on a batch workload.
  for (const char *Name : {"service.queue_ms", "service.prep_ms",
                           "service.kernel_ms", "net.overhead_ms"})
    Out.set(Name, 0.0, "ms");
  Out.set("service.cache_hit_frac", 0.0, "frac");
  Out.set("net.batches", 0.0, "count");
  Out.set("net.batch_size_mean", 0.0, "count");
  Out.set("bench.host_ref_s", median(L.HostRef), "s");
  Out.set("bench.trace_overhead_frac",
          UntracedSum > 0 ? TracedSum / UntracedSum - 1.0 : 0.0, "frac");

  if (!A.TraceOut.empty() && !Rec.write(A.TraceOut, Origin))
    std::fprintf(stderr, "cfvbench: cannot write %s\n", A.TraceOut.c_str());
  return 0;
}

} // namespace perfbench
