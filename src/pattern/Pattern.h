//===- pattern/Pattern.h - Index-stream pattern classes ---------*- C++ -*-===//
//
// Part of the cfv project: reproduction of Jiang & Agrawal, CGO 2018.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Data model of the pattern-classification subsystem (ROADMAP item 3,
/// the Intelligent-Unrolling / Autovesk direction): each tile of an
/// irregular index stream is scanned once during inspection and tagged
/// with one of five classes, and the executor dispatches a kernel
/// specialized to that class instead of paying the general
/// conflict-handling cost (the paper's 2 + 8*D1 / 7 + 8*D2) on every
/// vector.
///
/// The classification is a derived artifact with the same lifecycle as
/// the tiling schedule: computed once per dataset, attached to
/// inspector::TilingResult, memoized by graph::PreparedGraph, and cached
/// by service::DatasetCache so warm requests pay zero classify cost.
/// Because artifacts outlive the code that built them (LRU cache,
/// cross-request sharing), the result carries an explicit schema version;
/// consumers reject mismatches instead of misreading a stale layout.
///
/// Everything here is ISA-independent plain data.  The classifier's
/// entry points live in pattern/Classify.h and its width-generic kernel
/// in pattern/ClassifyKernel.h; the specialized kernels in
/// pattern/Dispatch.h.  Both kernels are templates instantiated by the
/// variant-compiled TUs, one source for all three backends.
///
//===----------------------------------------------------------------------===//

#ifndef CFV_PATTERN_PATTERN_H
#define CFV_PATTERN_PATTERN_H

#ifndef CFV_OBS
#define CFV_OBS 1
#endif

#include "util/Stats.h"

#include <cstdint>
#include <vector>

namespace cfv {
namespace pattern {

/// Bumped whenever TileInfo / PatternResult change layout or the
/// classifier's thresholds change meaning.  service::DatasetCache folds
/// this into its key (graph::kDerivedSchemaVersion), so a format change
/// invalidates persisted pattern/tiling artifacts instead of serving
/// them misinterpreted.
constexpr int kPatternSchemaVersion = 1;

/// Classes a tile's index stream can land in, in dispatch-precedence
/// order: the first class whose predicate holds wins, and earlier
/// classes have strictly cheaper kernels.
enum class TileClass : uint8_t {
  /// No duplicate index inside any aligned 16-lane window of the tile:
  /// the kernel is a pure gather/compute/scatter, no conflict handling
  /// at all.  Checked at 16 lanes (the widest backend), so the tag is
  /// valid for any lane width <= 16.
  ConflictFree,
  /// Non-decreasing indices: duplicates only in contiguous runs.  The
  /// kernel reduces each run with an in-register segmented scan
  /// (log2(lanes) shift/blend steps) and scatters once per run.
  Monotone,
  /// At most kMaxAlphabet distinct targets in the whole tile: the kernel
  /// privatizes into a register-resident accumulator tile and touches
  /// memory once per tile, not once per vector.
  SmallAlphabet,
  /// One dominant target absorbs most of the tile: its lanes fold into a
  /// scalar accumulator and the sparse remainder goes through Alg 1.
  HotBucket,
  /// No exploitable structure: the existing Alg1/Alg2/adaptive machinery
  /// runs unchanged.
  General,
};
constexpr int kNumTileClasses = 5;

/// Stable metric-label / JSON name for \p C ("conflict_free", ...).
const char *tileClassName(TileClass C);

/// ConflictFree is certified on aligned windows of this many lanes --
/// the widest compiled backend -- so every narrower backend's aligned
/// vectors are sub-windows of certified-distinct ones.
constexpr int kClassifyWindow = 16;

/// SmallAlphabet ceiling: one accumulator register tile's worth.
constexpr int kMaxAlphabet = 16;

/// HotBucket threshold: the dominant target must absorb strictly more
/// than this fraction of the tile's references.  Exactly 1/2 so a
/// single-pass majority vote (Boyer-Moore) finds the candidate without a
/// per-target count table, and the reference classifier in verify/Gen
/// provably agrees on every stream.
constexpr float kHotShareMin = 0.5f;

/// Per-tile classification outcome plus the stats that drove it.
struct TileInfo {
  TileClass Class = TileClass::General;
  /// Distinct targets referenced by the tile, exact up to
  /// kMaxAlphabet + 1 and saturated there ("more than an alphabet").
  int32_t Distinct = 0;
  /// Longest run of equal consecutive indices.
  int32_t MaxRun = 0;
  /// Mean duplicate-lane count per aligned 16-lane window (sampled): the
  /// D1 the paper's cost model would charge this tile.
  float D1Estimate = 0.0f;
  /// Dominant target and its share of the tile (valid when Class is
  /// HotBucket; best-effort stats otherwise).
  int32_t HotIdx = -1;
  float HotShare = 0.0f;
  /// The tile's distinct targets when Class is SmallAlphabet
  /// (AlphabetSize entries, ascending); unused otherwise.
  int32_t AlphabetSize = 0;
  int32_t Alphabet[kMaxAlphabet] = {};
};

/// Classification of one tiled (or pseudo-tiled) index stream.
struct PatternResult {
  int SchemaVersion = kPatternSchemaVersion;
  /// Block size the owning tiling used; -1 for pseudo-tiled flat streams
  /// (classifyStream), whose tiles are fixed-size windows.
  int BlockBits = -1;
  /// Pseudo-tile length when BlockBits == -1 (tile t spans
  /// [t*TileLen, min((t+1)*TileLen, N))); 0 for inspector tilings.
  int64_t TileLen = 0;
  /// One entry per tile, in tile order.
  std::vector<TileInfo> Tiles;
  /// Tiles per class, indexed by TileClass.
  int64_t Counts[kNumTileClasses] = {};

  int64_t numTiles() const { return static_cast<int64_t>(Tiles.size()); }

  /// Resident bytes, for the dataset cache's byte budget.
  int64_t approxBytes() const {
    return static_cast<int64_t>(Tiles.capacity() * sizeof(TileInfo) +
                                sizeof(PatternResult));
  }
};

/// Executor-side tally: tiles and vector passes routed to each class by
/// pattern::runTileSpecialized.  Workers accumulate locally and the run
/// facade flushes totals through obs (recordDispatch) once per run.
struct DispatchCounts {
  int64_t Tiles[kNumTileClasses] = {};
  int64_t Vectors[kNumTileClasses] = {};
  /// Useful lanes per vector pass, one histogram per class, so the
  /// per-class lane utilization is observable (cfv_pattern_useful_lanes).
  LaneHistogram Util[kNumTileClasses];
  /// 32-bit lanes of the executing backend; sizes the histogram buckets.
  int LaneWidth = 16;

  void merge(const DispatchCounts &O) {
    for (int C = 0; C < kNumTileClasses; ++C) {
      Tiles[C] += O.Tiles[C];
      Vectors[C] += O.Vectors[C];
      Util[C].merge(O.Util[C]);
    }
  }
  int64_t totalTiles() const {
    int64_t S = 0;
    for (int64_t T : Tiles)
      S += T;
    return S;
  }
};

/// Resolved subsystem mode.  RunOptions carries a request (core's
/// PatternMode, default "defer to CFV_PATTERN"); this is the answer.
enum class Mode {
  Off,          ///< no classification, no dispatch
  ClassifyOnly, ///< classify + export stats, run the general kernels
  On,           ///< classify + dispatch specialized kernels
};
const char *modeName(Mode M);

/// CFV_PATTERN=off|classify-only|on (unset -> On; unknown values note
/// once to stderr and fall back to On, following util/Env.h's contract).
Mode envMode();

// Out-of-line obs entry points (defined in Classify.cpp, baseline pass
// only) so variant-compiled TUs feed the one metrics registry -- the
// same linkage discipline as obs/Kernel.h.

#if CFV_OBS

/// Flushes cfv_pattern_tiles_total{class=...} once per classification.
void recordClassification(const PatternResult &R);

/// Flushes cfv_pattern_dispatch_total{class=...}, the per-class
/// vector-pass counters, and the per-class lane-utilization histograms
/// once per run.
void recordDispatch(const DispatchCounts &C);

#else

inline void recordClassification(const PatternResult &) {}
inline void recordDispatch(const DispatchCounts &) {}

#endif // CFV_OBS

} // namespace pattern
} // namespace cfv

#endif // CFV_PATTERN_PATTERN_H
