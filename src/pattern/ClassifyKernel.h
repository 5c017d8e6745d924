//===- pattern/ClassifyKernel.h - Width-generic tile classifier -*- C++ -*-===//
//
// Part of the cfv project: reproduction of Jiang & Agrawal, CGO 2018.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The classifier kernel behind pattern/Classify.h, width-generic over the
/// BackendTraits backends like the executors in pattern/Dispatch.h.  The
/// app TUs (compiled once per ISA variant) call classify<B> at their own
/// lane width; pattern/ClassifyKernel.cpp instantiates it once per variant
/// for the public entry points, which reach it through
/// core::DispatchTable::Classify.
///
/// One pass per tile, one aligned 16-element window (kClassifyWindow /
/// kLanes vectors) at a time:
///
///   duplicates  the lanes with non-zero conflict() bits -- one vpconflictd
///               per window on AVX-512; on 8-lane AVX2 the synthesized
///               conflict of each half plus a compare of the high half
///               against every lane of the low half
///   order, runs descent and equal-to-previous masks against the previous
///               element (a load one element back); MaxRun from the
///               stretches of the equal mask, the open run carried across
///               windows
///   alphabet    at most kMaxAlphabet broadcast compares; only the lanes
///               they miss go through scalar insertion, and only until the
///               alphabet overflows
///   majority    per-lane Boyer-Moore votes, merged pairwise after the
///               scan (a strict majority survives any cancellation order)
///               and settled by one vector count pass.  Only a tile that
///               is neither monotone nor a small alphabet needs them, so
///               voting starts once both are ruled out and the prefix
///               before that is voted over again at the end
///
/// Every TileInfo field is a function of the tile's elements alone, so the
/// result is identical on every backend: tier choice never changes a
/// classification or a cached artifact.
///
//===----------------------------------------------------------------------===//

#ifndef CFV_PATTERN_CLASSIFYKERNEL_H
#define CFV_PATTERN_CLASSIFYKERNEL_H

#include "pattern/Classify.h"
#include "simd/Mask.h"
#include "simd/Traits.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>

namespace cfv {
namespace pattern {
namespace detail {

/// Calls Fn(P, Len) over the elements [Lo, Hi) of \p S as contiguous
/// pieces, in order.  After the first piece, P[-1] is the element before
/// P[0].  Direct streams are one piece; permuted streams are gathered
/// through a small buffer one chunk at a time, so the permuted copy is
/// never materialized.
template <typename B, typename FnT>
void forEachPiece(const TileSource &S, int64_t Lo, int64_t Hi, FnT &&Fn) {
  using IV = simd::VecI32<B>;
  constexpr int kLanes = simd::BackendTraits<B>::kLanes;
  if (!S.Order) {
    if (Hi > Lo)
      Fn(S.Values + Lo, Hi - Lo);
    return;
  }
  // A whole number of windows, so every piece but the last keeps the
  // scanner window-aligned.  Buf[0] carries the previous chunk's last
  // element, read only from the second chunk on.
  constexpr int64_t kChunk = 64 * kClassifyWindow;
  int32_t Buf[1 + kChunk];
  for (int64_t C = Lo; C < Hi; C += kChunk) {
    const int64_t Len = std::min(kChunk, Hi - C);
    const int32_t *Order = S.Order + C;
    for (int64_t I = 0; I < Len; I += kLanes) {
      if (Len - I >= kLanes) {
        IV::gather(S.Values, IV::load(Order + I)).store(Buf + 1 + I);
      } else {
        const simd::Mask16 Act = simd::BackendTraits<B>::firstLanes(Len - I);
        IV::maskGather(IV::zero(), Act, S.Values,
                       IV::maskLoad(IV::zero(), Act, Order + I))
            .maskStore(Act, Buf + 1 + I);
      }
    }
    Fn(Buf + 1, Len);
    Buf[0] = Buf[Len];
  }
}

/// The scan state of one tile.
template <typename B> class TileScanner {
  using Traits = simd::BackendTraits<B>;
  using IV = typename Traits::I32;
  using Mask16 = simd::Mask16;
  static constexpr int kLanes = Traits::kLanes;
  static constexpr int kParts = kClassifyWindow / kLanes;
  static_assert(kClassifyWindow % kLanes == 0,
                "a classify window must be a whole number of vectors");

public:
  /// Continues the tile with P[0..N).  P[-1] must be the tile's previous
  /// element whenever anything was scanned before, and N a multiple of
  /// kClassifyWindow unless this is the tile's last piece.
  void scan(const int32_t *P, int64_t N) {
    int64_t Base = 0;
    if (Seen == 0 && N > 0) {
      // The tile's first element has no predecessor.
      Base = std::min<int64_t>(N, kClassifyWindow);
      window<true>(P, static_cast<int>(Base), /*First=*/true);
    }
    for (; Base + kClassifyWindow <= N; Base += kClassifyWindow)
      window<false>(P + Base, kClassifyWindow, /*First=*/false);
    if (Base < N)
      window<true>(P + Base, static_cast<int>(N - Base), /*First=*/false);
  }

  /// The tile's TileInfo.  \p Reread(Hi, Fn) must call Fn(P, Len) over
  /// the tile's elements [0, Hi) in contiguous pieces; it runs only when
  /// the tile is neither conflict-free, monotone, nor a small alphabet.
  template <typename RereadFn> TileInfo finish(RereadFn &&Reread) {
    TileInfo Info;
    if (Seen == 0) {
      // An empty tile trivially has no conflicts; the dispatcher's
      // conflict-free path is a no-op over zero vectors.
      Info.Class = TileClass::ConflictFree;
      return Info;
    }
    Info.MaxRun = MaxRun;
    Info.D1Estimate = static_cast<float>(static_cast<double>(DupLanes) /
                                         static_cast<double>(Windows));
    Info.Distinct = AlphaOver ? kMaxAlphabet + 1 : AlphaN;
    if (DupLanes == 0) {
      Info.Class = TileClass::ConflictFree;
    } else if (Mono) {
      Info.Class = TileClass::Monotone;
    } else if (!AlphaOver) {
      Info.Class = TileClass::SmallAlphabet;
      Info.AlphabetSize = AlphaN;
      std::sort(Alpha, Alpha + AlphaN);
      std::memcpy(Info.Alphabet, Alpha,
                  static_cast<size_t>(AlphaN) * sizeof(int32_t));
    } else {
      // Vote over the prefix scanned before voting started; then, if any
      // target holds a strict majority, the merged vote is it.
      Reread(VoteFrom, [&](const int32_t *P, int64_t N) {
        forVectors(P, N, [&](IV X, Mask16 Act) { vote(X, Act); });
      });
      const int32_t Cand = majorityCandidate();
      const IV Cv = IV::broadcast(Cand);
      int64_t Cnt = 0;
      Reread(Seen, [&](const int32_t *P, int64_t N) {
        forVectors(P, N, [&](IV X, Mask16 Act) {
          Cnt += simd::popcount(X.maskEq(Act, Cv));
        });
      });
      if (Cnt * 2 > Seen) {
        Info.Class = TileClass::HotBucket;
        Info.HotIdx = Cand;
        Info.HotShare = static_cast<float>(static_cast<double>(Cnt) /
                                           static_cast<double>(Seen));
      } else {
        Info.Class = TileClass::General;
      }
    }
    return Info;
  }

private:
  /// Calls Fn(X, Active) for each vector of P[0..N).
  template <typename FnT>
  static void forVectors(const int32_t *P, int64_t N, FnT &&Fn) {
    for (int64_t I = 0; I < N; I += kLanes) {
      const Mask16 Act = Traits::firstLanes(N - I);
      Fn(IV::maskLoad(IV::zero(), Act, P + I), Act);
    }
  }

  /// One window of Len (1..16) elements at P.  Masked windows (the tile's
  /// first and its tail) load lane-masked; the rest load whole vectors.
  template <bool Masked> void window(const int32_t *P, int Len, bool First) {
    uint32_t Dup = 0, Eq = 0, Desc = 0;
    IV X[kParts];
    for (int H = 0; H < kParts && H * kLanes < Len; ++H) {
      const int Off = H * kLanes;
      const Mask16 Act =
          Masked ? Traits::firstLanes(Len - Off) : Traits::kFullMask;
      const Mask16 HasPrev =
          First && H == 0 ? static_cast<Mask16>(Act & ~1u) : Act;
      IV Prev;
      if constexpr (Masked) {
        X[H] = IV::maskLoad(IV::zero(), Act, P + Off);
        Prev = IV::maskLoad(IV::zero(), HasPrev, P + Off - 1);
      } else {
        X[H] = IV::load(P + Off);
        Prev = IV::load(P + Off - 1);
      }
      Eq |= uint32_t(X[H].maskEq(HasPrev, Prev)) << Off;
      if (Mono)
        Desc |= uint32_t(X[H].lt(Prev) & HasPrev) << Off;

      // Duplicates inside this vector, then against the window's earlier
      // vectors (AVX2 only: its 8-lane vectors split the window).
      Mask16 D = static_cast<Mask16>(
          Act & ~Traits::conflict(X[H]).maskEq(Act, IV::zero()));
      for (int G = 0; G < H; ++G)
        for (int L = 0; L < kLanes; ++L)
          D |= X[H].maskEq(Act, X[G].broadcastLane(L));
      Dup |= uint32_t(D) << Off;

      if (Voting)
        vote(X[H], Act);
      if (!AlphaOver)
        alphabet(X[H], Act, P + Off);
    }
    DupLanes += std::popcount(Dup);
    ++Windows;
    Mono &= Desc == 0;
    runs(Eq, Len);
    Seen += Len;
    if (!Voting && !Mono && AlphaOver) {
      Voting = true;
      VoteFrom = Seen;
    }
  }

  /// Folds the window's equal-to-previous mask \p E (bit i: element i
  /// repeats element i-1) into the open run and MaxRun.
  void runs(uint32_t E, int Len) {
    // The open run extends through the low stretch of ones.
    MaxRun = std::max(MaxRun, Run + std::countr_one(E));
    // A stretch of L ones elsewhere is a run of L + 1, which can only
    // matter when the window holds at least MaxRun ones.  (Counting the
    // carried stretch again is harmless: Run >= 1 there.)
    if (std::popcount(E) >= MaxRun) {
      int32_t L = 0;
      for (uint32_t M = E; M; M &= M >> 1)
        ++L;
      MaxRun = std::max(MaxRun, L + 1);
    }
    // The top stretch stays open; a window of all ones extends the run.
    const int32_t Top = std::countl_one(E << (32 - Len));
    Run = Top == Len ? Run + Len : Top + 1;
  }

  /// Per-lane Boyer-Moore step: lane l votes over the elements it loads.
  void vote(IV X, Mask16 Act) {
    const Mask16 Fresh = Votes.maskEq(Act, IV::zero());
    Cands = IV::blend(Fresh, Cands, X);
    const Mask16 Agree = X.maskEq(Act, Cands);
    const IV Step = IV::blend(Agree, IV::broadcast(-1), IV::broadcast(1));
    Votes = IV::blend(Act, Votes, Votes + Step);
  }

  /// Alphabet membership for the active lanes of \p X (elements P[0..]).
  void alphabet(IV X, Mask16 Act, const int32_t *P) {
    Mask16 Miss = Act;
    for (int K = 0; K < AlphaN && Miss; ++K)
      Miss &= static_cast<Mask16>(~X.maskEq(Miss, IV::broadcast(Alpha[K])));
    while (Miss) {
      if (AlphaN == kMaxAlphabet) {
        AlphaOver = true;
        return;
      }
      const int32_t V = P[simd::firstLane(Miss)];
      Alpha[AlphaN++] = V;
      Miss &= static_cast<Mask16>(~X.maskEq(Miss, IV::broadcast(V)));
    }
  }

  /// Merges the per-lane votes: each lane's (candidate, votes) stands for
  /// that many copies of the candidate plus cancelled pairs of distinct
  /// elements, and merging two such summaries keeps that form.
  int32_t majorityCandidate() const {
    alignas(64) int32_t C[kLanes], V[kLanes];
    Cands.store(C);
    Votes.store(V);
    int32_t Cand = C[0];
    int64_t Vote = V[0];
    for (int L = 1; L < kLanes; ++L) {
      if (V[L] == 0)
        continue;
      if (Vote == 0 || C[L] == Cand) {
        Cand = C[L];
        Vote += V[L];
      } else if (Vote >= V[L]) {
        Vote -= V[L];
      } else {
        Cand = C[L];
        Vote = V[L] - Vote;
      }
    }
    return Cand;
  }

  int64_t Seen = 0;
  /// Votes cover the elements from VoteFrom on once Voting is set.
  bool Voting = false;
  int64_t VoteFrom = 0;
  int64_t DupLanes = 0, Windows = 0;
  bool Mono = true;
  int32_t Run = 0, MaxRun = 1;
  bool AlphaOver = false;
  int AlphaN = 0;
  int32_t Alpha[kMaxAlphabet] = {};
  IV Cands = IV::zero(), Votes = IV::zero();
};

} // namespace detail

/// Classifies elements [Lo, Hi) of \p S as one tile.
template <typename B>
TileInfo classifyTile(const TileSource &S, int64_t Lo, int64_t Hi) {
  detail::TileScanner<B> Scan;
  detail::forEachPiece<B>(S, Lo, Hi, [&](const int32_t *P, int64_t N) {
    Scan.scan(P, N);
  });
  return Scan.finish([&](int64_t End, auto &&Fn) {
    detail::forEachPiece<B>(S, Lo, Lo + End, Fn);
  });
}

/// Classifies every tile of \p S and flushes the per-class tile counts
/// (recordClassification).
template <typename B> PatternResult classify(const TileSource &S) {
  PatternResult R;
  R.BlockBits = S.BlockBits;
  R.TileLen = S.TileLen;
  R.Tiles.reserve(static_cast<size_t>(S.NumTiles));
  for (int64_t T = 0; T < S.NumTiles; ++T) {
    const TileInfo Info = classifyTile<B>(S, S.tileBegin(T), S.tileEnd(T));
    ++R.Counts[static_cast<int>(Info.Class)];
    R.Tiles.push_back(Info);
  }
  recordClassification(R);
  return R;
}

} // namespace pattern
} // namespace cfv

#endif // CFV_PATTERN_CLASSIFYKERNEL_H
