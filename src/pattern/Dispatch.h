//===- pattern/Dispatch.h - Class-specialized tile kernels ------*- C++ -*-===//
//
// Part of the cfv project: reproduction of Jiang & Agrawal, CGO 2018.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The executor side of the pattern subsystem: one kernel per TileClass,
/// width-generic over the BackendTraits backends exactly like
/// core/InvecReduce.h.  The app TUs (compiled per ISA variant)
/// instantiate these at their own lane width, so one source serves
/// scalar, AVX2, and AVX-512.
///
/// Per-class cost per vector, against the paper's 2 + 8*D1 (Alg 1) and
/// 7 + 8*D2 (Alg 2):
///
///   ConflictFree   ~2      gather-combine-scatter, zero conflict work
///   Monotone       ~2 + 4*log2(L)   segmented in-register scan; one
///                  scatter lane per run instead of one merge loop
///                  iteration per duplicate lane
///   SmallAlphabet  ~3*A    A compare/reduce folds into a register-
///                  resident accumulator; memory is touched once per
///                  *tile*, not per vector (A = alphabet size <= 16)
///   HotBucket      ~5 + 8*D1'  the dominant target leaves the vector
///                  before Alg 1 runs, so the residual D1' is small
///   General        caller's existing Alg1/Alg2/adaptive path
///
/// Contracts the classifier certifies (pattern/Classify.h) and the
/// kernels assert in debug builds:
///   - kernels walk a tile from its own first element in lane-aligned
///     steps, so every vector sits inside a certified 16-lane window;
///   - the payload callback returns the operator identity in inactive
///     lanes (gather defaults / maskLoad fills already do this);
///   - a sub-range of a tile may be dispatched on the tile's TileInfo
///     (chunk splits): every class predicate is closed under taking
///     contiguous, lane-aligned sub-ranges.
///
//===----------------------------------------------------------------------===//

#ifndef CFV_PATTERN_DISPATCH_H
#define CFV_PATTERN_DISPATCH_H

#include "core/InvecReduce.h"
#include "pattern/Pattern.h"
#include "simd/Mask.h"
#include "simd/Ops.h"
#include "simd/Reduce.h"
#include "simd/Traits.h"
#include "simd/Vec.h"

#include <cassert>
#include <cstdint>

namespace cfv {
namespace pattern {

using simd::Mask16;

/// Minimal sink for the verification pipelines and benches: dense
/// read-modify-write with \p Op.  The apps pass core::FloatSink instead
/// (same commit/add surface, OpAdd).
template <typename Op, typename T> class DenseSink {
public:
  explicit DenseSink(T *Base) : Base(Base) {}

  void add(int32_t I, T V) const {
    Base[I] = Op::template apply<T>(Base[I], V);
  }

  template <typename IV, typename V>
  void commit(Mask16 M, IV Idx, V Data) const {
    core::accumulateScatter<Op>(M, Idx, Data, Base);
  }

private:
  T *Base;
};

/// ConflictFree: the classifier certified pairwise-distinct indices in
/// every window, so the per-vector conflict check disappears entirely --
/// the pure gather/compute/scatter the paper's Figure 1 wishes it could
/// emit.
template <typename Op, typename T, typename B, typename PayloadFn,
          typename SinkT>
inline void runTileConflictFree(const int32_t *Idx, int64_t N,
                                PayloadFn &&Payload, const SinkT &Out) {
  using IV = simd::VecI32<B>;
  constexpr int kLanes = simd::BackendTraits<B>::kLanes;
  for (int64_t I = 0; I < N; I += kLanes) {
    const Mask16 Active = simd::BackendTraits<B>::firstLanes(N - I);
    const IV Iv = IV::maskLoad(IV::zero(), Active, Idx + I);
    const auto Vv = Payload(Active, I);
    assert(simd::conflictFreeSubset(Active, Iv) == Active &&
           "tile certified conflict-free but a window has duplicates");
    Out.commit(Active, Iv, Vv);
  }
}

/// Monotone: indices are non-decreasing, so duplicates form contiguous
/// runs.  A segmented Hillis-Steele scan folds each run into its last
/// lane in log2(lanes) shift/blend steps (index equality at distance d
/// implies run membership precisely because the stream is sorted), and
/// only last-occurrence lanes scatter -- one memory touch per run.  Runs
/// spanning vector (or chunk) boundaries stay correct because each piece
/// read-modify-writes the same slot sequentially.
template <typename Op, typename T, typename B, typename PayloadFn,
          typename SinkT>
inline void runTileMonotone(const int32_t *Idx, int64_t N,
                            PayloadFn &&Payload, const SinkT &Out) {
  using IV = simd::VecI32<B>;
  using V = simd::VecForT<T, B>;
  constexpr int kLanes = simd::BackendTraits<B>::kLanes;
  constexpr Mask16 kFull = simd::BackendTraits<B>::kFullMask;
  const V Id = V::broadcast(Op::template identity<T>());
  // Inactive lanes load index -1, which no real target equals, so they
  // can never join a run.
  const IV NoIdx = IV::broadcast(-1);

  for (int64_t I = 0; I < N; I += kLanes) {
    const Mask16 Active = simd::BackendTraits<B>::firstLanes(N - I);
    const IV Iv = IV::maskLoad(NoIdx, Active, Idx + I);
    V Vv = Payload(Active, I);

    for (int D = 1; D < kLanes; D <<= 1) {
      // Lanes >= D receive lane (i - D)'s index/partial via expand.
      const Mask16 Elig = static_cast<Mask16>((kFull << D) & kFull);
      const IV Pidx = IV::expand(Elig, Iv);
      V Pval = V::expand(Elig, Vv);
      // expand zero-fills unselected lanes; blend the operator identity
      // back in so non-additive operators stay correct.
      Pval = V::blend(Elig, Id, Pval);
      const Mask16 Same =
          Iv.maskEq(static_cast<Mask16>(Elig & Active), Pidx);
      Vv = V::blend(Same, Vv, Op::template combine<V>(Vv, Pval));
    }

    // A lane is its run's last occurrence unless its (active) successor
    // carries the same index.  compress with lanes 1.. selected shifts
    // the index vector down one lane; the top lane has no successor.
    const IV Nidx = IV::compress(static_cast<Mask16>(kFull & ~1u), Iv);
    const Mask16 SuccActive = static_cast<Mask16>(Active >> 1);
    const Mask16 NotLast = Iv.maskEq(SuccActive, Nidx);
    const Mask16 Last = static_cast<Mask16>(Active & ~NotLast);
    Out.commit(Last, Iv, Vv);
  }
}

/// SmallAlphabet: at most kMaxAlphabet distinct targets in the tile, so
/// the whole reduction privatizes into a register-resident accumulator
/// row -- one compare + masked horizontal fold per alphabet entry per
/// vector, and a single read-modify-write per entry per *tile*.  Lanes
/// outside the recorded alphabet (possible only on misclassification)
/// fall through Algorithm 1, so the kernel is correct unconditionally.
template <typename Op, typename T, typename B, typename PayloadFn,
          typename SinkT>
inline void runTileSmallAlphabet(const TileInfo &Info, const int32_t *Idx,
                                 int64_t N, PayloadFn &&Payload,
                                 const SinkT &Out) {
  using IV = simd::VecI32<B>;
  using V = simd::VecForT<T, B>;
  constexpr int kLanes = simd::BackendTraits<B>::kLanes;
  const int A = Info.AlphabetSize;
  assert(A > 0 && A <= kMaxAlphabet && "SmallAlphabet tile without alphabet");

  T Acc[kMaxAlphabet];
  IV AlphaVec[kMaxAlphabet];
  for (int K = 0; K < A; ++K) {
    Acc[K] = Op::template identity<T>();
    AlphaVec[K] = IV::broadcast(Info.Alphabet[K]);
  }
  const IV NoIdx = IV::broadcast(-1);

  for (int64_t I = 0; I < N; I += kLanes) {
    const Mask16 Active = simd::BackendTraits<B>::firstLanes(N - I);
    const IV Iv = IV::maskLoad(NoIdx, Active, Idx + I);
    V Vv = Payload(Active, I);
    Mask16 Covered = 0;
    for (int K = 0; K < A; ++K) {
      const Mask16 M = Iv.maskEq(Active, AlphaVec[K]);
      if (!M)
        continue;
      Acc[K] = Op::template apply<T>(Acc[K], simd::maskedReduce<Op>(M, Vv));
      Covered = static_cast<Mask16>(Covered | M);
    }
    const Mask16 Rest = static_cast<Mask16>(Active & ~Covered);
    if (Rest) {
      assert(false && "SmallAlphabet tile touched a target off-alphabet");
      const core::InvecResult IR = core::invecReduce<Op>(Rest, Iv, Vv);
      Out.commit(IR.Ret, Iv, Vv);
    }
  }
  for (int K = 0; K < A; ++K)
    Out.add(Info.Alphabet[K], Acc[K]);
}

/// HotBucket: the dominant target's lanes fold into a scalar
/// accumulator before Algorithm 1 sees the vector, so the merge loop
/// runs on the sparse remainder only (residual D1 near zero for the
/// streams that land here).  Correct for any hot-share -- the split is
/// exact, not statistical.
template <typename Op, typename T, typename B, typename PayloadFn,
          typename SinkT>
inline void runTileHotBucket(const TileInfo &Info, const int32_t *Idx,
                             int64_t N, PayloadFn &&Payload,
                             const SinkT &Out) {
  using IV = simd::VecI32<B>;
  using V = simd::VecForT<T, B>;
  constexpr int kLanes = simd::BackendTraits<B>::kLanes;
  assert(Info.HotIdx >= 0 && "HotBucket tile without a dominant target");

  T HotAcc = Op::template identity<T>();
  const IV Hot = IV::broadcast(Info.HotIdx);
  const IV NoIdx = IV::broadcast(-1);

  for (int64_t I = 0; I < N; I += kLanes) {
    const Mask16 Active = simd::BackendTraits<B>::firstLanes(N - I);
    const IV Iv = IV::maskLoad(NoIdx, Active, Idx + I);
    V Vv = Payload(Active, I);
    const Mask16 HotM = Iv.maskEq(Active, Hot);
    if (HotM)
      HotAcc =
          Op::template apply<T>(HotAcc, simd::maskedReduce<Op>(HotM, Vv));
    const Mask16 Rest = static_cast<Mask16>(Active & ~HotM);
    if (Rest) {
      const core::InvecResult IR = core::invecReduce<Op>(Rest, Iv, Vv);
      Out.commit(IR.Ret, Iv, Vv);
    }
  }
  Out.add(Info.HotIdx, HotAcc);
}

/// Routes one tile (or a lane-aligned sub-range of it) to its class
/// kernel.  Returns false for General -- the caller runs its existing
/// Alg1/Alg2/adaptive path -- and tallies \p Counts either way so the
/// dispatch mix is observable.
template <typename Op, typename T, typename B, typename PayloadFn,
          typename SinkT>
inline bool runTileSpecialized(const TileInfo &Info, const int32_t *Idx,
                               int64_t N, PayloadFn &&Payload,
                               const SinkT &Out,
                               DispatchCounts *Counts = nullptr) {
  constexpr int kLanes = simd::BackendTraits<B>::kLanes;
  if (Counts) {
    const int C = static_cast<int>(Info.Class);
    const int64_t Full = N / kLanes;
    const int Tail = static_cast<int>(N % kLanes);
    Counts->Tiles[C] += 1;
    Counts->Vectors[C] += Full + (Tail ? 1 : 0);
    Counts->Util[C].add(static_cast<unsigned>(kLanes),
                        static_cast<uint64_t>(Full));
    if (Tail)
      Counts->Util[C].add(static_cast<unsigned>(Tail));
    Counts->LaneWidth = kLanes;
  }
  switch (Info.Class) {
  case TileClass::ConflictFree:
    runTileConflictFree<Op, T, B>(Idx, N, Payload, Out);
    return true;
  case TileClass::Monotone:
    runTileMonotone<Op, T, B>(Idx, N, Payload, Out);
    return true;
  case TileClass::SmallAlphabet:
    runTileSmallAlphabet<Op, T, B>(Info, Idx, N, Payload, Out);
    return true;
  case TileClass::HotBucket:
    runTileHotBucket<Op, T, B>(Info, Idx, N, Payload, Out);
    return true;
  case TileClass::General:
    return false;
  }
  return false;
}

} // namespace pattern
} // namespace cfv

#endif // CFV_PATTERN_DISPATCH_H
