//===- perfbench/src/Batch.h - Timed cfv::run rounds ------------*- C++ -*-===//
//
// The batch workload (cold-1t) and the pieces the serving workload reuses:
// cold-1t's calls as its in-core controls, and the per-layer reporting
// and layer probes.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BATCH_H
#define PERFBENCH_BATCH_H

#include "Common.h"
#include "Reference.h"
#include "core/Api.h"
#include "graph/Graph.h"
#include "util/AlignedAlloc.h"

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// One app of a workload: its request, its answer check ("" = ok), and
/// how many back-to-back timed calls it makes per round.
struct Case {
  std::string App;
  cfv::AppRequest Req;
  std::function<std::string(const cfv::AppResult &)> Check;
  int CallsPerRound = 1;
};

/// What one timed call left behind (answers are dropped after the check).
struct Sample {
  double Wall = 0;
  bool Traced = false;
  bool Correct = false;
  cfv::AppResult Meta;
};

struct LoopStats {
  std::map<std::string, std::vector<Sample>> Samples;
  std::vector<double> HostRef; ///< traced runs only
  double TracedCalls = 0;
  double Launches = 0; ///< parallel-engine launches during traced rounds
};

/// cold-1t's inputs: plain edge lists and key streams, so every call
/// pays CSR build, tiling, classification and kernel.
struct ColdInputs {
  cfv::graph::EdgeList Pr;   ///< pagerank and spmv (higgs stand-in)
  cfv::graph::EdgeList Sssp; ///< pokec stand-in
  cfv::graph::EdgeList Wcc;  ///< clustered amazon stand-in
  cfv::AlignedVector<int32_t> Keys; ///< agg
  cfv::AlignedVector<float> Vals;
  cfv::AppResult MoldynSerial; ///< the moldyn reference answer
};

/// What generating cold-1t's inputs cost.
struct SetupTimes {
  double Total = 0, Gen = 0;
  std::vector<double> PerGraphGen;
};

/// Generates cold-1t's inputs from A.Seed (the same seed gives the same
/// inputs) under a bench.setup span of operation \p Op.
std::unique_ptr<ColdInputs> setupCold(const Args &A, Recorder &Rec,
                                      int64_t Op, SetupTimes &T);
/// The six cases over \p In (which must outlive them) with their
/// references; false when the moldyn reference fails.
bool makeColdCases(ColdInputs &In, std::vector<Case> &Cases);

/// One untimed, checked call per case; false when a call fails.
bool warmUp(std::vector<Case> &Cases);

/// One timed round: CallsPerRound calls per case.  Every answer is
/// checked outside the timed region; a failed call or a rejected answer
/// counts in Out.Failed.  A traced round records spans; a traced run (A.Trace)
/// times the host reference after each round.
void runRound(std::vector<Case> &Cases, const Args &A, bool Traced,
              Recorder &Rec, int64_t &Op, Report &Out, LoopStats &L);

/// Per-app per-layer metrics (core.<app>.*, apps.<app>.*) from the traced
/// samples and spans of \p App.
void reportAppLayers(const std::string &App, const std::vector<Sample> &S,
                     const Recorder &Rec, Report &Out);

/// pattern.tiles.<class> and pattern.specialized_frac from the last
/// sample of every app (the tile mix is deterministic per input).
void reportTileMix(const LoopStats &L, Report &Out);

/// Median traced and untraced wall of \p S (for the tracing overhead).
void tracedUntraced(const std::vector<Sample> &S, double &Traced,
                    double &Untraced);

/// The COO arrays of an in-core edge list.
Coo cooOf(const cfv::graph::EdgeList &G);

/// Layer probes of a traced run, each call its own operation:
/// graph::buildCsr over \p CsrGraphs (summed), then
/// inspector::tileByDestination and pattern classification (the tiling's
/// and the flat source stream's) over \p Tiled.  They run after the timed
/// rounds, outside the traced/untraced comparison.
struct ProbeTimes {
  std::vector<double> Csr, Tiling, Classify;
  int64_t Tiles = 0;
};
constexpr int kProbeRepeats = 3;
void probeLayers(const std::vector<const cfv::graph::EdgeList *> &CsrGraphs,
                 const Coo &Tiled, Recorder &Rec, int64_t &Op,
                 ProbeTimes &P);

/// The out-of-core layer, probed in a traced run: writes \p G as a CFVM
/// file at \p Path, maps it under a CFV_MAP_BYTES budget of a quarter of
/// the file, and runs wcc through the mapping kProbeRepeats times.  Each
/// answer is checked against the reference sweep and counted in \p Out.
struct MapProbe {
  double WriteS = 0, OpenS = 0;
  std::vector<double> CallS;          ///< wall of each mapped wcc call
  double Evictions = 0, Refaults = 0; ///< window counters per call
};
void probeMapped(const cfv::graph::EdgeList &G, const std::string &Path,
                 Recorder &Rec, int64_t &Op, Report &Out, MapProbe &P);

/// Runs cold-1t into \p Out; returns the process exit code.
int runBatch(const Args &A, Report &Out);

} // namespace perfbench

#endif // PERFBENCH_BATCH_H
