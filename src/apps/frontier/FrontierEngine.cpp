//===- apps/frontier/FrontierEngine.cpp - Wave-frontier algorithms -------===//
//
// Part of the cfv project: reproduction of Jiang & Agrawal, CGO 2018.
//
//===----------------------------------------------------------------------===//

#include "apps/frontier/FrontierEngine.h"

#include "core/InvecReduce.h"
#include "core/ParallelEngine.h"
#include "graph/Frontier.h"
#include "graph/MappedCsr.h"
#include "inspector/Grouping.h"
#include "inspector/Tiling.h"
#include "masking/ConflictMask.h"
#include "core/Backends.h"
#include "core/Variant.h"
#include "simd/Traits.h"
#include "obs/Trace.h"
#include "util/Stats.h"
#include "util/Timer.h"

#include <algorithm>
#include <cassert>
#include <limits>

using namespace cfv;
using namespace cfv::apps;

using B = simd::NativeBackend;
using IVec = simd::VecI32<B>;
using FVec = simd::VecF32<B>;
using simd::Mask16;
constexpr int kLanes = B::kLanes;
constexpr Mask16 kAllLanes = simd::BackendTraits<B>::kFullMask;

#if CFV_VARIANT_PRIMARY
const char *apps::appName(FrApp A) {
  switch (A) {
  case FrApp::Sssp:
    return "SSSP";
  case FrApp::Sswp:
    return "SSWP";
  case FrApp::Wcc:
    return "WCC";
  case FrApp::Bfs:
    return "BFS";
  }
  return "unknown";
}

const char *apps::versionName(FrVersion V) {
  switch (V) {
  case FrVersion::NontilingSerial:
    return "nontiling_serial";
  case FrVersion::NontilingMask:
    return "nontiling_and_mask";
  case FrVersion::NontilingInvec:
    return "nontiling_and_invec";
  case FrVersion::TilingGrouping:
    return "tiling_and_grouping";
  }
  return "unknown";
}
#endif // CFV_VARIANT_PRIMARY

namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();

/// SSSP: dist(ny) = min(dist(ny), dist(nx) + w); start at Source = 0.
struct SsspPolicy {
  using ReduceOp = simd::OpMin;
  static constexpr bool NeedsWeight = true;
  static constexpr bool AllVerticesStart = false;
  static float farValue(int32_t) { return kInf; }
  static float sourceValue() { return 0.0f; }
  static float candidate(float Dx, float W) { return Dx + W; }
  static FVec candidate(FVec Dx, FVec W) { return Dx + W; }
  static bool better(float C, float Cur) { return C < Cur; }
  static Mask16 better(FVec C, FVec Cur) { return C.lt(Cur); }
};

/// SSWP: width(ny) = max(width(ny), min(width(nx), w)); source = +inf.
struct SswpPolicy {
  using ReduceOp = simd::OpMax;
  static constexpr bool NeedsWeight = true;
  static constexpr bool AllVerticesStart = false;
  static float farValue(int32_t) { return 0.0f; }
  static float sourceValue() { return kInf; }
  static float candidate(float Dx, float W) { return W < Dx ? W : Dx; }
  static FVec candidate(FVec Dx, FVec W) { return FVec::min(Dx, W); }
  static bool better(float C, float Cur) { return C > Cur; }
  static Mask16 better(FVec C, FVec Cur) { return C.gt(Cur); }
};

/// WCC by min-label propagation: label(ny) = min(label(ny), label(nx));
/// every vertex starts active with its own id as label.  Vertex ids are
/// stored as float, exact up to 2^24, so cfv::run rejects larger graphs.
struct WccPolicy {
  using ReduceOp = simd::OpMin;
  static constexpr bool NeedsWeight = false;
  static constexpr bool AllVerticesStart = true;
  static float farValue(int32_t V) { return static_cast<float>(V); }
  static float sourceValue() { return 0.0f; } // unused
  static float candidate(float Dx, float) { return Dx; }
  static FVec candidate(FVec Dx, FVec) { return Dx; }
  static bool better(float C, float Cur) { return C < Cur; }
  static Mask16 better(FVec C, FVec Cur) { return C.lt(Cur); }
};

/// BFS: level(ny) = min(level(ny), level(nx) + 1); hop counts as float.
struct BfsPolicy {
  using ReduceOp = simd::OpMin;
  static constexpr bool NeedsWeight = false;
  static constexpr bool AllVerticesStart = false;
  static float farValue(int32_t) { return kInf; }
  static float sourceValue() { return 0.0f; }
  static float candidate(float Dx, float) { return Dx + 1.0f; }
  static FVec candidate(FVec Dx, FVec) {
    return Dx + FVec::broadcast(1.0f);
  }
  static bool better(float C, float Cur) { return C < Cur; }
  static Mask16 better(FVec C, FVec Cur) { return C.lt(Cur); }
};

/// One stage of the virtual active-edge list: the paper's n1/n2 arrays
/// (and the edge weights of weighted apps) for up to kFrontierStageEdges
/// consecutive active edges.
struct Stage {
  AlignedVector<int32_t> Src;
  AlignedVector<int32_t> Dst;
  AlignedVector<float> W;
  int64_t Size = 0;

  explicit Stage(bool NeedsWeight)
      : Src(kFrontierStageEdges), Dst(kFrontierStageEdges),
        W(NeedsWeight ? kFrontierStageEdges : 0) {}
};

static_assert(kFrontierStageEdges % simd::kMaxLanes == 0,
              "a stage must hold whole vectors on every backend");

/// Walks \p Count edges of the virtual active-edge list -- the CSR rows
/// of \p Verts concatenated in order -- starting \p Skip edges into row
/// \p First: copies them into \p S one stage at a time and calls
/// \p Sweep after each fill.  \p Mapped (may be null) receives residency
/// advice for each row as it streams.  Works off a CsrView so an in-core
/// Csr and the mmap'd CSR sections of a MappedCsr walk the same loop.
template <typename SweepFn>
void walkStages(const graph::CsrView &Adj, const graph::MappedCsr *Mapped,
                const int32_t *Verts, int64_t First, int64_t Skip,
                int64_t Count, Stage &S, SweepFn &&Sweep) {
  if (Count <= 0)
    return;
  const bool Weighted = !S.W.empty();
  int64_t Row = First;
  int64_t E = Adj.RowBegin[Verts[Row]] + Skip;
  while (Count > 0) {
    int64_t Fill = 0;
    while (Fill < kFrontierStageEdges && Count > 0) {
      const int32_t V = Verts[Row];
      const int64_t End = Adj.RowBegin[V + 1];
      const int64_t Take =
          std::min({End - E, kFrontierStageEdges - Fill, Count});
      if (Mapped)
        Mapped->adviseCsrRange(E, E + Take);
      // Vector-wide copies: most frontier rows are a few edges long, too
      // short for a library memcpy call to pay off.
      const IVec Vx = IVec::broadcast(V);
      for (int64_t K = 0; K < Take; K += kLanes) {
        const int64_t Left = Take - K;
        const Mask16 M = Left >= kLanes
                             ? kAllLanes
                             : static_cast<Mask16>((1u << Left) - 1u);
        IVec::maskLoad(IVec::zero(), M, Adj.Col + E + K)
            .maskStore(M, S.Dst.data() + Fill + K);
        Vx.maskStore(M, S.Src.data() + Fill + K);
        if (Weighted)
          FVec::maskLoad(FVec::zero(), M, Adj.Weight + E + K)
              .maskStore(M, S.W.data() + Fill + K);
      }
      Fill += Take;
      Count -= Take;
      E += Take;
      if (E == End && Count > 0)
        E = Adj.RowBegin[Verts[++Row]];
    }
    S.Size = Fill;
    Sweep(S);
  }
}

/// Where a sweep commits the destinations it improved.  With one thread
/// a sweep relaxes ValNew in place and marks Next directly; a parallel
/// worker leaves ValNew untouched and spills (vertex, candidate) pairs
/// for mergeCandidates.
struct RelaxInPlace {
  float *ValNew;
  graph::Frontier &Next;

  void commit(int32_t Ny, float Cand) {
    ValNew[Ny] = Cand;
    Next.add(Ny);
  }
  void commit(Mask16 M, IVec Ny, FVec Cand) {
    Cand.maskScatter(M, ValNew, Ny);
    Next.addLanes<B>(M, Ny);
  }
};

struct SpillCandidates {
  core::SpillListF &Out;

  void commit(int32_t Ny, float Cand) { Out.push(Ny, Cand); }
  void commit(Mask16 M, IVec Ny, FVec Cand) { Out.push(M, Ny, Cand); }
};

//===----------------------------------------------------------------------===//
// Relaxation sweeps
//
// Each sweep reads the stable Val through the source endpoint and
// relaxes through the destination against ValNew, committing to a sink.
// With one thread the sink writes ValNew as it goes; with several,
// workers read Val/ValNew strictly read-only and spill (destination,
// candidate) pairs pre-filtered against the stable ValNew, and the
// serial merge re-applies Policy::better in thread-id order.  min/max
// relaxations are exact, so ValNew ends equal to the one-thread sweep's
// at any thread count and in any edge order, and a vertex enters Next
// exactly when its final value improved.
//===----------------------------------------------------------------------===//

template <typename Policy, typename Sink>
void sweepSerial(const Stage &A, const float *Val, const float *ValNew,
                 Sink &Out) {
  for (int64_t J = 0; J < A.Size; ++J) {
    const int32_t Nx = A.Src[J];
    const int32_t Ny = A.Dst[J];
    const float W = Policy::NeedsWeight ? A.W[J] : 0.0f;
    const float Cand = Policy::candidate(Val[Nx], W);
    if (Policy::better(Cand, ValNew[Ny]))
      Out.commit(Ny, Cand);
  }
}

/// Conflict-masking sweep.  Every active edge performs the associative
/// update at its destination (relax-at-scatter, as the paper's
/// edge-centric mask versions do); a lane commits only when its
/// destination is conflict free in this pass, so the SIMD utilization is
/// dictated purely by the input's duplicate density.
template <typename Policy, typename Sink>
void sweepMask(const Stage &A, const float *Val, const float *ValNew,
               Sink &Out, SimdUtilCounter &Util) {
  const float *WPtr = Policy::NeedsWeight ? A.W.data() : nullptr;

  auto LoadIdx = [&](IVec Pos, Mask16 Lanes) {
    return IVec::maskGather(IVec::zero(), Lanes, A.Dst.data(), Pos);
  };
  auto Commit = [&](Mask16 Safe, IVec Pos, IVec Idx) {
    const IVec Vnx = IVec::maskGather(IVec::zero(), Safe, A.Src.data(), Pos);
    const FVec Vdx = FVec::maskGather(FVec::zero(), Safe, Val, Vnx);
    const FVec Vw = WPtr ? FVec::maskGather(FVec::zero(), Safe, WPtr, Pos)
                         : FVec::zero();
    const FVec Cand = Policy::candidate(Vdx, Vw);
    const FVec Cur = FVec::maskGather(FVec::zero(), Safe, ValNew, Idx);
    const Mask16 Better =
        static_cast<Mask16>(Policy::better(Cand, Cur) & Safe);
    if (Better)
      Out.commit(Better, Idx, Cand);
  };
  masking::maskedStreamLoop<B>(A.Size, LoadIdx,
                               masking::AllLanesNeedUpdate{}, Commit, &Util);
}

template <typename Policy, typename Sink>
void sweepInvec(const Stage &A, const float *Val, const float *ValNew,
                Sink &Out, ConflictCounter &MeanD1) {
  using Op = typename Policy::ReduceOp;
  const float *WPtr = Policy::NeedsWeight ? A.W.data() : nullptr;
  const int64_t M = A.Size;

  for (int64_t J = 0; J < M; J += kLanes) {
    const int64_t Left = M - J;
    const Mask16 Active =
        Left >= kLanes ? kAllLanes
                       : static_cast<Mask16>((1u << Left) - 1u);
    const IVec Vnx = IVec::maskLoad(IVec::zero(), Active, A.Src.data() + J);
    const IVec Vny = IVec::maskLoad(IVec::zero(), Active, A.Dst.data() + J);
    const FVec Vdx = FVec::maskGather(FVec::zero(), Active, Val, Vnx);
    const FVec Vw = WPtr
                        ? FVec::maskLoad(FVec::zero(), Active, WPtr + J)
                        : FVec::zero();
    FVec Cand = Policy::candidate(Vdx, Vw);

    // In-vector reduction: duplicate destinations collapse to their first
    // lane, so the compare-and-scatter below is conflict free.
    const core::InvecResult R = core::invecReduce<Op>(Active, Vny, Cand);
    MeanD1.add(R.Distinct);

    const FVec Cur = FVec::maskGather(FVec::zero(), R.Ret, ValNew, Vny);
    const Mask16 Better =
        static_cast<Mask16>(Policy::better(Cand, Cur) & R.Ret);
    if (Better)
      Out.commit(Better, Vny, Cand);
  }
}

/// Relaxes one stage with the nontiling version \p V.
template <typename Policy, typename Sink>
void sweepStage(FrVersion V, const Stage &A, const float *Val,
                const float *ValNew, Sink &Out, SimdUtilCounter &Util,
                ConflictCounter &MeanD1) {
  switch (V) {
  case FrVersion::NontilingSerial:
    sweepSerial<Policy>(A, Val, ValNew, Out);
    return;
  case FrVersion::NontilingMask:
    sweepMask<Policy>(A, Val, ValNew, Out, Util);
    return;
  case FrVersion::NontilingInvec:
    sweepInvec<Policy>(A, Val, ValNew, Out, MeanD1);
    return;
  case FrVersion::TilingGrouping:
    assert(false && "grouping scans its groups, not the frontier walk");
    return;
  }
}

/// The pre-grouped full edge list the tiling_and_grouping version reuses
/// across iterations.
struct GroupedEdgeSet {
  AlignedVector<int32_t> Src;
  AlignedVector<int32_t> Dst;
  AlignedVector<float> W;
  AlignedVector<Mask16> GroupMask;
  int64_t NumGroups = 0;
};

/// Scans groups [GLo, GHi): lanes whose source vertex is in the current
/// frontier (\p Flags) carry this iteration's active edges.
template <typename Policy, typename Sink>
void sweepGrouped(const GroupedEdgeSet &GE, const int32_t *Flags,
                  const float *Val, const float *ValNew, int64_t GLo,
                  int64_t GHi, Sink &Out) {
  for (int64_t G = GLo; G < GHi; ++G) {
    const Mask16 M = GE.GroupMask[G];
    const IVec Vnx = IVec::load(GE.Src.data() + G * kLanes);
    const IVec InF = IVec::maskGather(IVec::zero(), M, Flags, Vnx);
    const Mask16 ActiveM = static_cast<Mask16>(InF.gt(IVec::zero()) & M);
    if (!ActiveM)
      continue;

    const IVec Vny = IVec::load(GE.Dst.data() + G * kLanes);
    const FVec Vdx = FVec::maskGather(FVec::zero(), ActiveM, Val, Vnx);
    const FVec Vw = Policy::NeedsWeight
                        ? FVec::load(GE.W.data() + G * kLanes)
                        : FVec::zero();
    const FVec Cand = Policy::candidate(Vdx, Vw);
    const FVec CurV = FVec::maskGather(FVec::zero(), ActiveM, ValNew, Vny);
    const Mask16 Better =
        static_cast<Mask16>(Policy::better(Cand, CurV) & ActiveM);
    // Destinations are pairwise distinct within a group: commit directly.
    if (Better)
      Out.commit(Better, Vny, Cand);
  }
}

/// Applies the per-worker candidate lists in thread-id order.
template <typename Policy>
void mergeCandidates(std::vector<core::SpillListF> &Spills,
                     AlignedVector<float> &ValNew, graph::Frontier &Next) {
  for (core::SpillListF &L : Spills) {
    const int64_t K = L.size();
    for (int64_t I = 0; I < K; ++I) {
      const int32_t Ny = L.Idx[static_cast<size_t>(I)];
      const float Cand = L.Val[static_cast<size_t>(I)];
      if (Policy::better(Cand, ValNew[Ny])) {
        ValNew[Ny] = Cand;
        Next.add(Ny);
      }
    }
    L.clear();
  }
}

/// Where one worker's share of the active-edge list starts.
struct WalkStart {
  int64_t Row = 0;  ///< index into the frontier
  int64_t Skip = 0; ///< edges of that row before the share begins
};

/// Locates each worker's first row from a running degree prefix sum over
/// the frontier; \p Bounds are positions in the active-edge list.
std::vector<WalkStart> locateStarts(const graph::CsrView &Adj,
                                    const AlignedVector<int32_t> &Verts,
                                    const std::vector<int64_t> &Bounds) {
  std::vector<WalkStart> Starts(Bounds.size() - 1);
  const int64_t NumVerts = static_cast<int64_t>(Verts.size());
  int64_t Row = 0, Before = 0;
  for (size_t T = 0; T < Starts.size(); ++T) {
    // Skip the rows that end at or before the share's first position
    // (empty rows there included).
    while (Row < NumVerts && Before + Adj.degree(Verts[Row]) <= Bounds[T]) {
      Before += Adj.degree(Verts[Row]);
      ++Row;
    }
    Starts[T] = {Row, Bounds[T] - Before};
  }
  return Starts;
}

template <typename Policy>
FrontierResult runImpl(const graph::EdgeList &G, FrVersion V,
                       const FrontierOptions &O) {
  FrontierResult R;
  const int32_t N = G.NumNodes;
  // Out-of-core substitution: a compatible MappedCsr supplies both the
  // CSR adjacency (exact buildCsr output, so the walk is bit-identical)
  // and the original-order COO arrays the grouping inspector consumes;
  // it also serves a hollow EdgeList whose edges live only in the
  // mapping.
  const graph::MappedCsr *Mapped = O.SharedMapped;
  const bool UseMapped =
      Mapped && Mapped->numNodes() == N &&
      (G.numEdges() == 0 || G.numEdges() == Mapped->numEdges()) &&
      (!Policy::NeedsWeight || Mapped->isWeighted());
  // An edgeless graph vacuously carries weights, as cfv::run accepts.
  assert((!Policy::NeedsWeight || G.isWeighted() || G.numEdges() == 0 ||
          UseMapped) &&
         "this application requires edge weights");
  const int32_t *ESrc = UseMapped ? Mapped->edgeSrc() : G.Src.data();
  const int32_t *EDst = UseMapped ? Mapped->edgeDst() : G.Dst.data();
  const float *EWt = UseMapped ? Mapped->edgeWeight() : G.Weight.data();
  const int64_t NumEdges = UseMapped ? Mapped->numEdges() : G.numEdges();
  // Reuse a compatible precomputed adjacency (the mapped CSR sections,
  // or PreparedGraph's through the cfv::run facade) instead of
  // rebuilding CSR on every run.
  const bool ShareCsr = !UseMapped && O.SharedCsr &&
                        O.SharedCsr->NumNodes == N &&
                        O.SharedCsr->numEdges() == G.numEdges();
  graph::Csr LocalAdj;
  graph::CsrView Adj;
  if (UseMapped) {
    Adj = Mapped->csrView();
  } else if (ShareCsr) {
    Adj = graph::CsrView::of(*O.SharedCsr);
  } else {
    WallTimer P;
    LocalAdj = graph::buildCsr(G);
    Adj = graph::CsrView::of(LocalAdj);
    R.CsrSeconds = P.seconds();
    // Retroactive span from the measurement the result reports, like
    // spmv:csr_build.
    obs::Tracer::instance().recordAt("frontier:csr_build", "inspector",
                                     monotonicSeconds() - R.CsrSeconds,
                                     R.CsrSeconds);
  }

  AlignedVector<float> Val(N), ValNew(N);
  for (int32_t I = 0; I < N; ++I)
    Val[I] = Policy::farValue(I);
  graph::Frontier Cur(N), Next(N);
  if (Policy::AllVerticesStart) {
    Cur.beginWave(N);
    for (int32_t I = 0; I < N; ++I)
      Cur.add(I);
  } else {
    assert(O.Source >= 0 && O.Source < N && "source out of range");
    Val[O.Source] = Policy::sourceValue();
    Cur.add(O.Source);
  }
  Cur.publish<B>();
  ValNew = Val;

  // One-time data reorganization for the inspector/executor version: tile
  // then group the full edge list; iterations reuse it via the frontier
  // flags (the ICS'16 reuse technique).
  GroupedEdgeSet GE;
  if (V == FrVersion::TilingGrouping) {
    WallTimer TT;
    const inspector::TilingResult *SharedTiling =
        O.SharedTiling && O.SharedTiling->BlockBits == O.TileBlockBits &&
                static_cast<int64_t>(O.SharedTiling->Order.size()) == NumEdges
            ? O.SharedTiling
            : nullptr;
    // The inspector reads the whole COO; prime the mapped window once.
    if (UseMapped)
      Mapped->adviseEdgeRange(0, NumEdges);
    inspector::TilingResult LocalTiling;
    if (!SharedTiling)
      LocalTiling =
          inspector::tileByDestination(EDst, NumEdges, N, O.TileBlockBits);
    const inspector::TilingResult &Tiling =
        SharedTiling ? *SharedTiling : LocalTiling;
    R.TilingSeconds = TT.seconds();
    obs::Tracer::instance().recordAt("frontier:tile", "inspector",
                                     monotonicSeconds() - R.TilingSeconds,
                                     R.TilingSeconds);
    WallTimer TG;
    inspector::GroupingResult Grouping =
        inspector::groupConflictFree(EDst, N, Tiling, kLanes);
    GE.Src = inspector::applyGrouping(Grouping, ESrc, int32_t(0));
    GE.Dst = inspector::applyGrouping(Grouping, EDst, int32_t(0));
    if (Policy::NeedsWeight)
      GE.W = inspector::applyGrouping(Grouping, EWt, 0.0f);
    GE.GroupMask = std::move(Grouping.GroupMask);
    GE.NumGroups = Grouping.NumGroups;
    R.GroupingSeconds = TG.seconds();
    obs::Tracer::instance().recordAt(
        "frontier:group", "inspector",
        monotonicSeconds() - R.GroupingSeconds, R.GroupingSeconds);
  }

  const int NumThreads = core::resolveThreads(O.Threads);
  std::vector<Stage> Stages;
  if (V != FrVersion::TilingGrouping)
    Stages.assign(NumThreads, Stage(Policy::NeedsWeight));
  std::vector<SimdUtilCounter> Utils(NumThreads);
  std::vector<ConflictCounter> D1s(NumThreads);
  std::vector<core::SpillListF> Spills(NumThreads > 1 ? NumThreads : 0);
  const std::vector<int64_t> GroupBounds =
      V == FrVersion::TilingGrouping
          ? core::chunkBounds(GE.NumGroups, NumThreads, 1)
          : std::vector<int64_t>();
  const graph::MappedCsr *Advise = UseMapped ? Mapped : nullptr;
  core::ParallelEngine &Engine = core::ParallelEngine::instance();

  WallTimer Compute;
  while (!Cur.empty() && R.Iterations < O.MaxIterations) {
    if (core::shouldStop(O)) {
      R.TimedOut = true;
      break;
    }
    const AlignedVector<int32_t> &Verts = Cur.vertices();
    int64_t WaveEdges = 0;
    for (const int32_t X : Verts)
      WaveEdges += Adj.degree(X);
    R.EdgesProcessed += WaveEdges;
    Next.beginWave(WaveEdges);

    if (NumThreads == 1) {
      RelaxInPlace Sink{ValNew.data(), Next};
      if (V == FrVersion::TilingGrouping)
        sweepGrouped<Policy>(GE, Cur.flags(), Val.data(), ValNew.data(), 0,
                             GE.NumGroups, Sink);
      else
        walkStages(Adj, Advise, Verts.data(), 0, 0, WaveEdges, Stages[0],
                   [&](const Stage &S) {
                     sweepStage<Policy>(V, S, Val.data(), ValNew.data(), Sink,
                                        Utils[0], D1s[0]);
                   });
    } else {
      // Parallel candidate sweep + deterministic merge.  Each worker
      // walks its own kLanes-aligned share of the active-edge list.
      const std::vector<int64_t> Bounds =
          V == FrVersion::TilingGrouping
              ? GroupBounds
              : core::chunkBounds(WaveEdges, NumThreads, kLanes);
      const std::vector<WalkStart> Starts =
          V == FrVersion::TilingGrouping ? std::vector<WalkStart>()
                                         : locateStarts(Adj, Verts, Bounds);
      Engine.run(NumThreads, [&](int Tid) {
        SpillCandidates Sink{Spills[Tid]};
        if (V == FrVersion::TilingGrouping) {
          sweepGrouped<Policy>(GE, Cur.flags(), Val.data(), ValNew.data(),
                               Bounds[Tid], Bounds[Tid + 1], Sink);
          return;
        }
        walkStages(Adj, Advise, Verts.data(), Starts[Tid].Row,
                   Starts[Tid].Skip, Bounds[Tid + 1] - Bounds[Tid],
                   Stages[Tid], [&](const Stage &S) {
                     sweepStage<Policy>(V, S, Val.data(), ValNew.data(), Sink,
                                        Utils[Tid], D1s[Tid]);
                   });
      });
      mergeCandidates<Policy>(Spills, ValNew, Next);
    }
    // Publish this iteration's relaxations and advance the wave.
    Next.publish<B>();
    for (const int32_t W : Next.vertices())
      Val[W] = ValNew[W];
    ++R.Iterations;
    Cur.clear();
    Cur.swap(Next);
  }
  R.ComputeSeconds = Compute.seconds();

  R.Value = std::move(Val);
  SimdUtilCounter Util;
  for (const SimdUtilCounter &U : Utils)
    Util.merge(U);
  ConflictCounter MeanD1;
  for (const ConflictCounter &D : D1s)
    MeanD1.merge(D);
  R.SimdUtil = Util.utilization();
  R.UtilHist = Util.laneHistogram();
  R.MeanD1 = MeanD1.count() ? MeanD1.mean() : 0.0;
  R.D1Hist = MeanD1.histogram();
  return R;
}

} // namespace

// Compiled once per backend variant; the public apps::runFrontier
// forwards here through core::dispatch().
FrontierResult apps::CFV_VARIANT_NS::runFrontier(const graph::EdgeList &G,
                                                 FrApp A, FrVersion V,
                                                 const FrontierOptions &O) {
  switch (A) {
  case FrApp::Sssp:
    return runImpl<SsspPolicy>(G, V, O);
  case FrApp::Sswp:
    return runImpl<SswpPolicy>(G, V, O);
  case FrApp::Wcc:
    return runImpl<WccPolicy>(G, V, O);
  case FrApp::Bfs:
    return runImpl<BfsPolicy>(G, V, O);
  }
  assert(false && "unknown frontier application");
  return {};
}
