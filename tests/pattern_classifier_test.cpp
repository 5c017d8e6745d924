//===- tests/pattern_classifier_test.cpp - Pattern classifier --------------===//
//
// Part of the cfv project: reproduction of Jiang & Agrawal, CGO 2018.
//
//===----------------------------------------------------------------------===//
//
// The per-tile index-stream classifier (src/pattern/): intended classes
// for handcrafted streams, agreement with the verify harness's naive
// reference over every generator family and tail residue, pseudo-tile
// segmentation, mode resolution, the per-tile statistics the
// dispatcher's cost model reads, and field-for-field identity of every
// TileInfo across the compiled backends and against a naive reference of
// each field's definition.
//
//===----------------------------------------------------------------------===//

#include "core/Dispatch.h"
#include "inspector/Tiling.h"
#include "pattern/Classify.h"
#include "verify/Gen.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <map>
#include <set>
#include <vector>

using namespace cfv;
using pattern::TileClass;

namespace {

AlignedVector<int32_t> conflictFreeStream(int64_t N) {
  AlignedVector<int32_t> Idx(static_cast<size_t>(N));
  for (int64_t I = 0; I < N; ++I)
    Idx[static_cast<size_t>(I)] = static_cast<int32_t>(I % 16);
  return Idx;
}

AlignedVector<int32_t> monotoneStream(int64_t N, int Run) {
  AlignedVector<int32_t> Idx(static_cast<size_t>(N));
  for (int64_t I = 0; I < N; ++I)
    Idx[static_cast<size_t>(I)] = static_cast<int32_t>(I / Run);
  return Idx;
}

AlignedVector<int32_t> smallAlphabetStream(int64_t N) {
  static const int32_t Alpha[5] = {3, 9, 1, 7, 5};
  AlignedVector<int32_t> Idx(static_cast<size_t>(N));
  for (int64_t I = 0; I < N; ++I)
    Idx[static_cast<size_t>(I)] = Alpha[I % 5];
  return Idx;
}

AlignedVector<int32_t> hotBucketStream(int64_t N) {
  // 60% one target, the rest spread over ~30 cold ones (> 16 distinct,
  // so the small-alphabet rule cannot claim it first).
  AlignedVector<int32_t> Idx(static_cast<size_t>(N));
  for (int64_t I = 0; I < N; ++I)
    Idx[static_cast<size_t>(I)] =
        (I % 5 < 3) ? 7 : static_cast<int32_t>(20 + (I * 7) % 60);
  return Idx;
}

AlignedVector<int32_t> generalStream(int64_t N) {
  // Duplicate pairs over a 24-value cycle: conflicts in every window,
  // unsorted, 24 distinct targets, no majority.
  AlignedVector<int32_t> Idx(static_cast<size_t>(N));
  for (int64_t I = 0; I < N; ++I)
    Idx[static_cast<size_t>(I)] = static_cast<int32_t>((I / 2 * 7) % 24);
  return Idx;
}

/// Every TileInfo field straight from its definition in pattern/Pattern.h:
/// std::set per aligned window, one pass for order and runs, a std::map
/// histogram for the alphabet and the majority.
pattern::TileInfo referenceInfo(const int32_t *Idx, int64_t N) {
  pattern::TileInfo Info;
  if (N <= 0) {
    Info.Class = TileClass::ConflictFree;
    return Info;
  }
  int64_t Dup = 0, Windows = 0;
  for (int64_t Base = 0; Base < N; Base += pattern::kClassifyWindow) {
    std::set<int32_t> Win;
    for (int64_t I = Base;
         I < std::min<int64_t>(N, Base + pattern::kClassifyWindow); ++I)
      Dup += Win.insert(Idx[I]).second ? 0 : 1;
    ++Windows;
  }
  bool Mono = true;
  int32_t Run = 1, MaxRun = 1;
  for (int64_t I = 1; I < N; ++I) {
    Run = Idx[I] == Idx[I - 1] ? Run + 1 : 1;
    MaxRun = std::max(MaxRun, Run);
    Mono = Mono && Idx[I] >= Idx[I - 1];
  }
  std::map<int32_t, int64_t> Hist;
  for (int64_t I = 0; I < N; ++I)
    ++Hist[Idx[I]];
  const int Distinct = static_cast<int>(Hist.size());

  Info.MaxRun = MaxRun;
  Info.D1Estimate = static_cast<float>(static_cast<double>(Dup) /
                                       static_cast<double>(Windows));
  Info.Distinct = std::min(Distinct, pattern::kMaxAlphabet + 1);
  if (Dup == 0) {
    Info.Class = TileClass::ConflictFree;
  } else if (Mono) {
    Info.Class = TileClass::Monotone;
  } else if (Distinct <= pattern::kMaxAlphabet) {
    Info.Class = TileClass::SmallAlphabet;
    Info.AlphabetSize = Distinct;
    int K = 0;
    for (const auto &E : Hist)
      Info.Alphabet[K++] = E.first;
  } else {
    const auto Top = std::max_element(
        Hist.begin(), Hist.end(),
        [](const auto &A, const auto &B) { return A.second < B.second; });
    if (Top->second * 2 > N) {
      Info.Class = TileClass::HotBucket;
      Info.HotIdx = Top->first;
      Info.HotShare = static_cast<float>(static_cast<double>(Top->second) /
                                         static_cast<double>(N));
    } else {
      Info.Class = TileClass::General;
    }
  }
  return Info;
}

void expectSameInfo(const pattern::TileInfo &Want,
                    const pattern::TileInfo &Got) {
  EXPECT_EQ(Want.Class, Got.Class);
  EXPECT_EQ(Want.Distinct, Got.Distinct);
  EXPECT_EQ(Want.MaxRun, Got.MaxRun);
  EXPECT_EQ(Want.D1Estimate, Got.D1Estimate);
  EXPECT_EQ(Want.HotIdx, Got.HotIdx);
  EXPECT_EQ(Want.HotShare, Got.HotShare);
  EXPECT_EQ(Want.AlphabetSize, Got.AlphabetSize);
  for (int K = 0; K < pattern::kMaxAlphabet; ++K)
    EXPECT_EQ(Want.Alphabet[K], Got.Alphabet[K]) << "alphabet entry " << K;
}

void expectSameResult(const pattern::PatternResult &Want,
                      const pattern::PatternResult &Got) {
  EXPECT_EQ(Want.BlockBits, Got.BlockBits);
  EXPECT_EQ(Want.TileLen, Got.TileLen);
  for (int C = 0; C < pattern::kNumTileClasses; ++C)
    EXPECT_EQ(Want.Counts[C], Got.Counts[C]);
  ASSERT_EQ(Want.numTiles(), Got.numTiles());
  for (size_t T = 0; T < Want.Tiles.size(); ++T) {
    SCOPED_TRACE(T);
    expectSameInfo(Want.Tiles[T], Got.Tiles[T]);
  }
}

/// The dispatch tables of every tier this binary carries and this host
/// runs, scalar first.
std::vector<const core::DispatchTable *> runnableTiers() {
  std::vector<const core::DispatchTable *> Tiers;
  for (const core::BackendInfo &I : core::backendInfos())
    if (I.Available)
      Tiers.push_back(&core::dispatchFor(I.Kind));
  return Tiers;
}

/// Classifies Idx[0..N) as one tile on every runnable tier and checks each
/// against the reference, field for field.
void expectEveryTierMatchesReference(const int32_t *Idx, int64_t N) {
  const pattern::TileInfo Want = referenceInfo(Idx, N);
  const pattern::TileSource S = pattern::rangeSource(Idx, N);
  for (const core::DispatchTable *T : runnableTiers()) {
    SCOPED_TRACE(T->Name);
    const pattern::PatternResult R = T->Classify(S);
    ASSERT_EQ(R.numTiles(), 1);
    expectSameInfo(Want, R.Tiles[0]);
  }
}

/// Appends \p Count copies of \p X.
void append(AlignedVector<int32_t> &Idx, int32_t X, int Count) {
  Idx.insert(Idx.end(), static_cast<size_t>(Count), X);
}

} // namespace

TEST(PatternClassifier, IntendedClasses) {
  const int64_t N = 160;
  EXPECT_EQ(pattern::classifyRange(conflictFreeStream(N).data(), N).Class,
            TileClass::ConflictFree);
  EXPECT_EQ(pattern::classifyRange(monotoneStream(N, 3).data(), N).Class,
            TileClass::Monotone);
  EXPECT_EQ(pattern::classifyRange(smallAlphabetStream(N).data(), N).Class,
            TileClass::SmallAlphabet);
  EXPECT_EQ(pattern::classifyRange(hotBucketStream(N).data(), N).Class,
            TileClass::HotBucket);
  EXPECT_EQ(pattern::classifyRange(generalStream(N).data(), N).Class,
            TileClass::General);
}

TEST(PatternClassifier, EmptyTileIsConflictFree) {
  EXPECT_EQ(pattern::classifyRange(nullptr, 0).Class,
            TileClass::ConflictFree);
}

TEST(PatternClassifier, PrecedenceConflictFreeBeatsEverything) {
  // A strictly increasing stream is sorted AND window-distinct: the
  // cheaper conflict-free kernel must win over monotone.
  AlignedVector<int32_t> Idx(64);
  for (int I = 0; I < 64; ++I)
    Idx[static_cast<size_t>(I)] = I;
  EXPECT_EQ(pattern::classifyRange(Idx.data(), 64).Class,
            TileClass::ConflictFree);
}

TEST(PatternClassifier, TailResiduesEveryIntendedClass) {
  // Every length up to three windows (every residue mod 8 and mod 16 on
  // both lane widths, plus straddlers): the classifier must place partial
  // windows in the same class the full-length stream gets, and every
  // tier must fill every TileInfo field as the reference does.
  for (int64_t N = 0; N <= 48; ++N) {
    SCOPED_TRACE(N);
    const auto CF = conflictFreeStream(N);
    EXPECT_EQ(pattern::classifyRange(CF.data(), N).Class,
              TileClass::ConflictFree);
    EXPECT_EQ(pattern::classifyRange(CF.data(), N).Class,
              verify::expectedClass(CF.data(), N));
    expectEveryTierMatchesReference(CF.data(), N);
    for (const auto &Idx :
         {monotoneStream(N, 3), smallAlphabetStream(N), hotBucketStream(N),
          generalStream(N)}) {
      // Short prefixes legitimately fall into cheaper classes (a 4-run
      // monotone prefix of length 3 is conflict-free); what must hold
      // for every length is agreement with the naive reference.
      EXPECT_EQ(pattern::classifyRange(Idx.data(), N).Class,
                verify::expectedClass(Idx.data(), N));
      expectEveryTierMatchesReference(Idx.data(), N);
    }
  }
}

TEST(PatternClassifier, AgreesWithReferenceOnEveryGenFamily) {
  // The generator tags each workload via verify::expectedClass; the
  // production classifier must agree across every index family, value
  // family, and tail residue the enumerator emits, on every tier and in
  // every TileInfo field.
  for (uint64_t CaseNo = 0; CaseNo < 600; ++CaseNo) {
    const verify::Workload W =
        verify::genWorkload(verify::specForCase(0xC1A55, CaseNo));
    SCOPED_TRACE(W.Spec.toString());
    EXPECT_EQ(pattern::classifyRange(W.Idx.data(), W.Spec.N).Class,
              W.Expected);
    expectEveryTierMatchesReference(W.Idx.data(), W.Spec.N);
  }
}

TEST(PatternClassifier, SmallAlphabetGenFamilyLandsInClass) {
  // The dedicated generator family must actually produce the class it
  // was added to stress (for lengths long enough to rule out CF).
  verify::CaseSpec S;
  S.Seed = 42;
  S.N = 256;
  S.Universe = 509;
  S.Idx = verify::IdxPattern::SmallAlphabet;
  const verify::Workload W = verify::genWorkload(S);
  EXPECT_EQ(W.Expected, TileClass::SmallAlphabet);
  EXPECT_EQ(pattern::classifyRange(W.Idx.data(), W.Spec.N).Class,
            TileClass::SmallAlphabet);
}

TEST(PatternClassifier, StreamSegmentation) {
  // Three 64-element pseudo-tiles with different shapes, plus a 17-
  // element tail tile: per-tile classes and the count summary.
  AlignedVector<int32_t> Idx;
  const auto Append = [&](const AlignedVector<int32_t> &S) {
    Idx.insert(Idx.end(), S.begin(), S.end());
  };
  Append(conflictFreeStream(64));
  Append(monotoneStream(64, 3));
  Append(generalStream(64));
  Append(conflictFreeStream(17));

  const pattern::PatternResult P =
      pattern::classifyStream(Idx.data(), static_cast<int64_t>(Idx.size()),
                              /*TileLen=*/64);
  ASSERT_EQ(P.numTiles(), 4);
  EXPECT_EQ(P.TileLen, 64);
  EXPECT_EQ(P.Tiles[0].Class, TileClass::ConflictFree);
  EXPECT_EQ(P.Tiles[1].Class, TileClass::Monotone);
  EXPECT_EQ(P.Tiles[2].Class, TileClass::General);
  EXPECT_EQ(P.Tiles[3].Class, TileClass::ConflictFree);
  EXPECT_EQ(P.Counts[static_cast<int>(TileClass::ConflictFree)], 2);
  EXPECT_EQ(P.Counts[static_cast<int>(TileClass::Monotone)], 1);
  EXPECT_EQ(P.Counts[static_cast<int>(TileClass::General)], 1);
}

TEST(PatternClassifier, StreamTileLenRoundsToWindow) {
  // Pseudo-tile starts must stay window-aligned (the certification
  // contract), so odd lengths round up to a multiple of 16.
  const auto Idx = conflictFreeStream(128);
  const pattern::PatternResult P =
      pattern::classifyStream(Idx.data(), 128, /*TileLen=*/50);
  EXPECT_EQ(P.TileLen, 64);
  EXPECT_EQ(P.numTiles(), 2);
}

TEST(PatternClassifier, TileStatistics) {
  const int64_t N = 160;
  const auto Mono = monotoneStream(N, 4);
  const pattern::TileInfo M = pattern::classifyRange(Mono.data(), N);
  EXPECT_EQ(M.MaxRun, 4);
  EXPECT_GT(M.D1Estimate, 0.0f);

  const auto Alpha = smallAlphabetStream(N);
  const pattern::TileInfo A = pattern::classifyRange(Alpha.data(), N);
  ASSERT_EQ(A.Class, TileClass::SmallAlphabet);
  EXPECT_EQ(A.AlphabetSize, 5);
  // The stored alphabet is sorted and matches the distinct targets.
  const int32_t Want[5] = {1, 3, 5, 7, 9};
  for (int I = 0; I < 5; ++I)
    EXPECT_EQ(A.Alphabet[I], Want[I]);

  const auto Hot = hotBucketStream(N);
  const pattern::TileInfo H = pattern::classifyRange(Hot.data(), N);
  ASSERT_EQ(H.Class, TileClass::HotBucket);
  EXPECT_EQ(H.HotIdx, 7);
  EXPECT_NEAR(H.HotShare, 0.6f, 0.01f);

  const pattern::TileInfo C =
      pattern::classifyRange(conflictFreeStream(N).data(), N);
  EXPECT_EQ(C.D1Estimate, 0.0f);
}

TEST(PatternClassifier, ModeResolution) {
  EXPECT_EQ(pattern::resolveMode(core::PatternMode::Off),
            pattern::Mode::Off);
  EXPECT_EQ(pattern::resolveMode(core::PatternMode::ClassifyOnly),
            pattern::Mode::ClassifyOnly);
  EXPECT_EQ(pattern::resolveMode(core::PatternMode::On), pattern::Mode::On);
  // Env defers to CFV_PATTERN (cached); whatever it resolves to must be
  // one of the three concrete modes.
  const pattern::Mode M = pattern::resolveMode(core::PatternMode::Env);
  EXPECT_TRUE(M == pattern::Mode::Off || M == pattern::Mode::ClassifyOnly ||
              M == pattern::Mode::On);
}

TEST(PatternClassifier, ClassNamesAreStable) {
  // Metric label / JSON field names: renames break dashboards.
  EXPECT_STREQ(pattern::tileClassName(TileClass::ConflictFree),
               "conflict_free");
  EXPECT_STREQ(pattern::tileClassName(TileClass::Monotone), "monotone");
  EXPECT_STREQ(pattern::tileClassName(TileClass::SmallAlphabet),
               "small_alphabet");
  EXPECT_STREQ(pattern::tileClassName(TileClass::HotBucket), "hot_bucket");
  EXPECT_STREQ(pattern::tileClassName(TileClass::General), "general");
  EXPECT_STREQ(pattern::modeName(pattern::Mode::Off), "off");
  EXPECT_STREQ(pattern::modeName(pattern::Mode::ClassifyOnly),
               "classify-only");
  EXPECT_STREQ(pattern::modeName(pattern::Mode::On), "on");
}

//===----------------------------------------------------------------------===//
// Cross-backend identity: every tier's TileInfo equals the reference
//===----------------------------------------------------------------------===//

TEST(PatternClassifierTiers, RunsStraddlingWindowsAndTileStart) {
  // MaxRun carries the open run across 16-element windows (and, on
  // 8-lane AVX2, across the halves of one window); runs starting at the
  // tile's first element must count it.
  struct Shape {
    int Lead;    ///< distinct elements before the run
    int RunLen;  ///< length of the run of one value
    int Tail;    ///< distinct elements after it
    int32_t Want;
  };
  const Shape Shapes[] = {
      {0, 20, 5, 20}, {0, 16, 3, 16}, {0, 1, 40, 1},   {14, 5, 9, 5},
      {15, 2, 1, 2},  {7, 3, 10, 3},  {12, 37, 2, 37}, {16, 16, 16, 16},
      {31, 2, 0, 2},  {3, 48, 0, 48}, {0, 33, 0, 33},  {5, 8, 30, 8},
  };
  for (const Shape &Sh : Shapes) {
    SCOPED_TRACE(testing::Message() << Sh.Lead << "+" << Sh.RunLen << "+"
                                    << Sh.Tail);
    // Unsorted around the run, so the stream is not monotone and the run
    // is the only repetition.
    AlignedVector<int32_t> Idx;
    for (int I = 0; I < Sh.Lead; ++I)
      Idx.push_back(1000 - I);
    append(Idx, 7, Sh.RunLen);
    for (int I = 0; I < Sh.Tail; ++I)
      Idx.push_back(2000 - I);
    const int64_t N = static_cast<int64_t>(Idx.size());
    EXPECT_EQ(referenceInfo(Idx.data(), N).MaxRun, Sh.Want);
    expectEveryTierMatchesReference(Idx.data(), N);
  }
  // Two runs of one value split by a single other element must not merge,
  // even when the break sits on a window boundary.
  AlignedVector<int32_t> Split;
  append(Split, 3, 15);
  Split.push_back(4);
  append(Split, 3, 15);
  EXPECT_EQ(referenceInfo(Split.data(), 31).MaxRun, 15);
  expectEveryTierMatchesReference(Split.data(), 31);
}

TEST(PatternClassifierTiers, RunsDoNotCarryAcrossPseudoTiles) {
  // A run across a pseudo-tile boundary is two runs: each tile is
  // classified from its own first element.
  AlignedVector<int32_t> Idx;
  for (int I = 0; I < 40; ++I)
    Idx.push_back(500 - I);
  append(Idx, 9, 40); // elements 40..79 straddle the tile start at 64
  for (int I = 0; I < 48; ++I)
    Idx.push_back(900 - I);
  const int64_t N = static_cast<int64_t>(Idx.size());
  const pattern::TileSource S = pattern::streamSource(Idx.data(), N, 64);
  std::vector<pattern::PatternResult> Results;
  for (const core::DispatchTable *T : runnableTiers())
    Results.push_back(T->Classify(S));
  ASSERT_EQ(Results[0].numTiles(), 2);
  EXPECT_EQ(Results[0].Tiles[0].MaxRun, 24);
  EXPECT_EQ(Results[0].Tiles[1].MaxRun, 16);
  expectSameInfo(referenceInfo(Idx.data(), 64), Results[0].Tiles[0]);
  expectSameInfo(referenceInfo(Idx.data() + 64, N - 64), Results[0].Tiles[1]);
  for (size_t K = 1; K < Results.size(); ++K)
    expectSameResult(Results[0], Results[K]);
}

TEST(PatternClassifierTiers, AlphabetOfSixteenAndSeventeen) {
  // Exactly kMaxAlphabet distinct targets still privatize; one more does
  // not.  Values come in pairs (not conflict-free) that descend and wrap
  // (not monotone), and the last distinct value arrives only near the
  // tile's end.
  for (int Distinct : {15, 16, 17, 18}) {
    for (int64_t N : {int64_t(40), int64_t(100), int64_t(4096)}) {
      SCOPED_TRACE(testing::Message() << Distinct << " distinct, N=" << N);
      AlignedVector<int32_t> Idx(static_cast<size_t>(N));
      for (int64_t I = 0; I < N; ++I)
        Idx[static_cast<size_t>(I)] =
            static_cast<int32_t>(100 - (I / 2) % (Distinct - 1));
      Idx[static_cast<size_t>(N - 3)] = 50;
      const pattern::TileInfo Want = referenceInfo(Idx.data(), N);
      EXPECT_EQ(Want.Distinct, std::min(Distinct, 17));
      EXPECT_EQ(Want.Class, Distinct <= 16 ? TileClass::SmallAlphabet
                                           : TileClass::General);
      expectEveryTierMatchesReference(Idx.data(), N);
    }
  }
}

TEST(PatternClassifierTiers, MajorityOfExactlyHalfAndHalfPlusOne) {
  // A strict majority is HotBucket; exactly N/2 is not.  The hot slots are
  // placed so per-lane votes see very different shares: packed at the
  // front, packed at the back, on every other lane, on one lane only in
  // most windows, and never on lane 0 (whose own vote then names a cold
  // target, so only the merge across lanes finds the majority).
  const int64_t N = 512;
  for (int64_t Hot : {N / 2 - 1, N / 2, N / 2 + 1}) {
    for (int Layout = 0; Layout < 5; ++Layout) {
      SCOPED_TRACE(testing::Message() << "hot=" << Hot << " layout=" << Layout);
      std::vector<int64_t> Order(static_cast<size_t>(N));
      for (int64_t I = 0; I < N; ++I)
        Order[static_cast<size_t>(I)] = I;
      if (Layout == 1)
        std::reverse(Order.begin(), Order.end());
      if (Layout == 2)
        std::stable_partition(Order.begin(), Order.end(),
                              [](int64_t I) { return I % 2 == 0; });
      if (Layout == 3)
        std::stable_partition(Order.begin(), Order.end(),
                              [](int64_t I) { return I % 16 == 5; });
      if (Layout == 4)
        std::stable_partition(Order.begin(), Order.end(),
                              [](int64_t I) { return I % 8 != 0; });
      AlignedVector<int32_t> Idx(static_cast<size_t>(N));
      for (int64_t K = 0; K < N; ++K)
        Idx[static_cast<size_t>(Order[static_cast<size_t>(K)])] =
            K < Hot ? 77 : static_cast<int32_t>(1000 + K % 97);
      const pattern::TileInfo Want = referenceInfo(Idx.data(), N);
      EXPECT_EQ(Want.Class, Hot * 2 > N ? TileClass::HotBucket
                                        : TileClass::General);
      expectEveryTierMatchesReference(Idx.data(), N);
    }
  }
}

TEST(PatternClassifierTiers, TilingMatchesMaterializedTiles) {
  // classifyTiling gathers through the permutation chunk by chunk; it
  // must equal classifying the materialized permuted stream, on every
  // tier, including tiles longer than one gather chunk.
  for (uint64_t Seed : {1u, 2u, 3u}) {
    verify::CaseSpec Spec;
    Spec.Seed = Seed;
    Spec.N = 20000 + static_cast<int64_t>(Seed) * 777;
    Spec.Universe = Seed == 1 ? 509 : 1 << 14;
    Spec.Idx = Seed == 3 ? verify::IdxPattern::HotBucket
                         : verify::IdxPattern::Uniform;
    const verify::Workload W = verify::genWorkload(Spec);
    for (int BlockBits : {2, 6, 16}) {
      SCOPED_TRACE(testing::Message() << "seed " << Seed << " bits "
                                      << BlockBits);
      const inspector::TilingResult T = inspector::tileByDestination(
          W.Idx.data(), Spec.N, Spec.Universe, BlockBits);
      const AlignedVector<int32_t> Tiled =
          inspector::applyPermutation(T.Order, W.Idx.data());
      const pattern::PatternResult Want =
          pattern::classifyTiles(Tiled.data(), T.TileBegin, BlockBits);
      expectSameResult(Want, pattern::classifyTiling(T, W.Idx.data()));
      pattern::TileSource S =
          pattern::tilesSource(W.Idx.data(), T.TileBegin, BlockBits);
      S.Order = T.Order.data();
      for (const core::DispatchTable *Tier : runnableTiers()) {
        SCOPED_TRACE(Tier->Name);
        expectSameResult(Want, Tier->Classify(S));
      }
    }
  }
}
