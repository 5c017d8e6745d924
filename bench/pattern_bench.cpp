//===- bench/pattern_bench.cpp - Pattern-dispatch speedup harness ---------===//
//
// Part of the cfv project: reproduction of Jiang & Agrawal, CGO 2018.
//
//===----------------------------------------------------------------------===//
//
// Per-class speedup breakdown for the pattern subsystem (src/pattern/):
// for each generator family that lands in a specialized tile class, time
// the adaptive baseline (AdaptiveReducer -- the paper's §3.4 policy, the
// strongest general-purpose path this repo has) against classify-then-
// dispatch over the same stream, same output array, same operator.
// Classification is timed separately, on every compiled tier this host
// can run: warm requests reuse a memoized classification, but every cold
// call pays it, so each family also reports the break-even horizon --
// how many dispatch passes must reuse one classification before it has
// paid for itself.
//
//   $ bench/pattern_bench
//   {"bench":"pattern_classify","family":"distinct_round_robin",
//    "backend":"scalar","n":1048576,"tiles":256,"classify_ns_per_elem":...}
//   ...
//   {"bench":"pattern_dispatch","family":"distinct_round_robin",
//    "tile_class":"conflict_free","backend":"avx512","n":1048576,...,
//    "adaptive_ns_per_elem":...,"pattern_ns_per_elem":...,"speedup":...,
//    "breakeven_passes":...}
//
// One pattern_classify line per family and runnable tier, then one
// pattern_dispatch line per family, so scripts/bench_collect.sh folds
// the run into BENCH_<rev>.json unmodified.  The dispatch row's
// classify_ns_per_elem is the classifier of its own backend, and
// breakeven_passes = classify_ns_per_elem / (adaptive_ns_per_elem -
// pattern_ns_per_elem), null when dispatch saves nothing.  The
// acceptance gate reads the "speedup" field: >= 1.3x on the
// conflict-free and monotone families, and the "general" control row
// (where dispatch routes every tile back to the baseline) must stay
// within 2% of it.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "core/Adaptive.h"
#include "core/Dispatch.h"
#include "core/InvecReduce.h"
#include "pattern/Classify.h"
#include "pattern/Dispatch.h"
#include "simd/Traits.h"
#include "util/AlignedAlloc.h"
#include "util/Timer.h"
#include "verify/Gen.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

using namespace cfv;
using namespace cfv::bench;

namespace {

using B = simd::NativeBackend;
using IVec = simd::VecI32<B>;
using FVec = simd::VecF32<B>;
constexpr int kL = B::kLanes;
constexpr simd::Mask16 kFull = simd::BackendTraits<B>::kFullMask;

constexpr int64_t kN = 1 << 20;  ///< elements per family (multiple of 16)
constexpr int32_t kUniverse = 4096;
constexpr int kReps = 7;         ///< timed repetitions; min wins

/// Adaptive baseline: the §3.4 policy over the whole stream, private
/// aux array merged at the end -- the exact shape the apps run when
/// CFV_PATTERN=off.
double runAdaptiveBaseline(const verify::Workload &W, float *Out,
                           double *Sink) {
  double Best = 1e300;
  AlignedVector<float> Aux(static_cast<size_t>(W.arraySize()));
  for (int Rep = 0; Rep < kReps; ++Rep) {
    std::memset(Out, 0, sizeof(float) * static_cast<size_t>(W.arraySize()));
    std::fill(Aux.begin(), Aux.end(), 0.0f);
    core::AdaptiveReducer<simd::OpAdd, float, B> Red(Aux.data(), Aux.size());
    WallTimer T;
    for (int64_t I = 0; I < kN; I += kL) {
      const IVec Idx = IVec::load(W.Idx.data() + I);
      FVec Val = FVec::load(W.Val.data() + I);
      const simd::Mask16 M = Red.reduce(kFull, Idx, Val);
      core::accumulateScatter<simd::OpAdd>(M, Idx, Val, Out);
    }
    Red.mergeInto(Out);
    Best = std::min(Best, T.seconds());
    for (int32_t I = 0; I < W.arraySize(); ++I)
      *Sink += Out[I];
  }
  return Best;
}

/// Classify-then-dispatch: specialized kernels per certified tile,
/// General tiles falling back to the same adaptive reducer the apps keep
/// for their unspecialized path (so the "general" control row measures
/// pure dispatch overhead, not an algorithm swap).
double runPatternDispatch(const verify::Workload &W,
                          const pattern::PatternResult &P, float *Out,
                          double *Sink) {
  double Best = 1e300;
  AlignedVector<float> Aux(static_cast<size_t>(W.arraySize()));
  for (int Rep = 0; Rep < kReps; ++Rep) {
    std::memset(Out, 0, sizeof(float) * static_cast<size_t>(W.arraySize()));
    std::fill(Aux.begin(), Aux.end(), 0.0f);
    const pattern::DenseSink<simd::OpAdd, float> S(Out);
    core::AdaptiveReducer<simd::OpAdd, float, B> Red(Aux.data(), Aux.size());
    WallTimer T;
    for (int64_t Tile = 0; Tile < P.numTiles(); ++Tile) {
      const int64_t Lo = Tile * P.TileLen;
      const int64_t Hi = std::min<int64_t>(kN, Lo + P.TileLen);
      const int32_t *Idx = W.Idx.data() + Lo;
      const float *Val = W.Val.data() + Lo;
      const auto Payload = [&](simd::Mask16 Active, int64_t I) {
        return FVec::maskLoad(FVec::broadcast(0.0f), Active, Val + I);
      };
      if (pattern::runTileSpecialized<simd::OpAdd, float, B>(
              P.Tiles[static_cast<size_t>(Tile)], Idx, Hi - Lo, Payload, S))
        continue;
      for (int64_t I = Lo; I < Hi; I += kL) {
        const IVec Iv = IVec::load(W.Idx.data() + I);
        FVec Vv = FVec::load(W.Val.data() + I);
        const simd::Mask16 M = Red.reduce(kFull, Iv, Vv);
        core::accumulateScatter<simd::OpAdd>(M, Iv, Vv, Out);
      }
    }
    Red.mergeInto(Out);
    Best = std::min(Best, T.seconds());
    for (int32_t I = 0; I < W.arraySize(); ++I)
      *Sink += Out[I];
  }
  return Best;
}

/// Classification of the whole stream in pseudo-tiles on tier \p T (min
/// over kReps; the dispatch loop below never includes it).
double classifySeconds(const core::DispatchTable &T,
                       const verify::Workload &W, pattern::PatternResult &P) {
  double Best = 1e300;
  for (int Rep = 0; Rep < kReps; ++Rep) {
    WallTimer CT;
    P = T.Classify(pattern::streamSource(W.Idx.data(), kN));
    Best = std::min(Best, CT.seconds());
  }
  return Best;
}

void benchFamily(verify::IdxPattern Family, int32_t Universe) {
  verify::CaseSpec Spec;
  Spec.Seed = benchSeed();
  Spec.N = kN;
  Spec.Universe = Universe;
  Spec.Idx = Family;
  const verify::Workload W = verify::genWorkload(Spec);

  // Classification cost per element on every tier this host runs; the
  // dispatch row below uses its own backend's figure.
  pattern::PatternResult P;
  double ClassifySec = 0.0;
  for (const core::BackendInfo &I : core::backendInfos()) {
    if (!I.Available)
      continue;
    const double Sec = classifySeconds(core::dispatchFor(I.Kind), W, P);
    std::printf("{\"bench\":\"pattern_classify\",\"family\":\"%s\","
                "\"backend\":\"%s\",\"n\":%lld,\"tiles\":%lld,"
                "\"classify_ns_per_elem\":%.4f}\n",
                verify::idxPatternName(Family), I.Name,
                static_cast<long long>(kN),
                static_cast<long long>(P.numTiles()), Sec / kN * 1e9);
    if (std::strcmp(I.Name, B::kName) == 0)
      ClassifySec = Sec;
  }

  // Dominant tile class: what the dispatcher actually sees, which for
  // these synthetic families should be uniform across tiles.
  int Dominant = 0;
  for (int C = 1; C < pattern::kNumTileClasses; ++C)
    if (P.Counts[C] > P.Counts[Dominant])
      Dominant = C;

  AlignedVector<float> Out(static_cast<size_t>(W.arraySize()));
  double Sink = 0.0;
  const double AdaptiveSec = runAdaptiveBaseline(W, Out.data(), &Sink);
  const double PatternSec = runPatternDispatch(W, P, Out.data(), &Sink);
  if (Sink == 42.125)  // consume the checksum so nothing dead-codes
    std::fprintf(stderr, "# %f\n", Sink);

  // ROADMAP item 5's break-even horizon: passes of saved kernel time
  // that one classification costs.
  char Breakeven[32] = "null";
  if (AdaptiveSec > PatternSec)
    std::snprintf(Breakeven, sizeof(Breakeven), "%.3f",
                  ClassifySec / (AdaptiveSec - PatternSec));
  std::printf("{\"bench\":\"pattern_dispatch\",\"family\":\"%s\","
              "\"tile_class\":\"%s\",\"backend\":\"%s\",\"n\":%lld,"
              "\"tiles\":%lld,\"adaptive_ns_per_elem\":%.4f,"
              "\"pattern_ns_per_elem\":%.4f,\"classify_ns_per_elem\":%.4f,"
              "\"speedup\":%.3f,\"breakeven_passes\":%s}\n",
              verify::idxPatternName(Family),
              pattern::tileClassName(static_cast<pattern::TileClass>(Dominant)),
              B::kName, static_cast<long long>(kN),
              static_cast<long long>(P.numTiles()),
              AdaptiveSec / kN * 1e9, PatternSec / kN * 1e9,
              ClassifySec / kN * 1e9, AdaptiveSec / PatternSec, Breakeven);
}

} // namespace

int main() {
  // One row per family that exercises a distinct tile class, plus the
  // uniform-over-small-universe control that classifies General (its
  // "speedup" is the dispatch overhead: must stay within 2% of 1.0).
  benchFamily(verify::IdxPattern::DistinctRoundRobin, kUniverse);
  benchFamily(verify::IdxPattern::Monotone, kUniverse);
  benchFamily(verify::IdxPattern::SmallAlphabet, kUniverse);
  benchFamily(verify::IdxPattern::HotBucket, kUniverse);
  benchFamily(verify::IdxPattern::Uniform, /*Universe=*/64);
  return 0;
}
