//===- pattern/Classify.h - Per-tile index-stream classifier ----*- C++ -*-===//
//
// Part of the cfv project: reproduction of Jiang & Agrawal, CGO 2018.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The inspector side of the pattern subsystem: one pass per tile assigns
/// a TileClass plus the stats in pattern::TileInfo.  Cold calls (a plain
/// EdgeList or key stream through cfv::run) classify on every call, so
/// the pass is vectorized like the kernels it feeds: the classifier is
/// one width-generic kernel (pattern/ClassifyKernel.h) that finds a
/// window's duplicates with conflict() -- the paper's vpconflictd -- and
/// runs at the lane width of the selected backend.  The entry points
/// below reach it through core::DispatchTable::Classify; variant-compiled
/// code calls classify<B> directly.  The result is identical on every
/// backend.
///
/// Certification contract: ConflictFree means *no aligned 16-lane window
/// measured from the tile's first element contains a duplicate index*.
/// Executors must therefore walk each tile from its own start in
/// lane-aligned steps (every tile-aligned 8- or 16-lane vector is then a
/// sub-window of a certified window); the engine's chunk bounds are tile-
/// or lane-aligned already, so this holds for every dispatch site.
///
//===----------------------------------------------------------------------===//

#ifndef CFV_PATTERN_CLASSIFY_H
#define CFV_PATTERN_CLASSIFY_H

#include "core/RunOptions.h"
#include "inspector/Tiling.h"
#include "pattern/Pattern.h"

#include <algorithm>
#include <cstdint>
#include <vector>

namespace cfv {
namespace pattern {

/// Pseudo-tile length for flat (untiled) streams: long enough to
/// amortize per-tile dispatch, short enough that one misbehaving stretch
/// cannot drag a whole stream to General.  Must stay a multiple of
/// kClassifyWindow so pseudo-tile starts are window-aligned.
constexpr int64_t kStreamTileLen = 4096;

/// Where a (pseudo-)tiled index stream lives, as the classifier kernel
/// reads it: element p is Values[p], or Values[Order[p]] when Order is set
/// (an inspector permutation applied on the fly).  Tiles are explicit
/// (Begin holds NumTiles + 1 bounds) or, when Begin is null, fixed
/// pseudo-tiles of TileLen over N elements.
struct TileSource {
  const int32_t *Values = nullptr;
  const int32_t *Order = nullptr;
  const int64_t *Begin = nullptr;
  int64_t NumTiles = 0;
  int64_t N = 0;
  int64_t TileLen = 0;
  int BlockBits = -1;

  int64_t tileBegin(int64_t T) const { return Begin ? Begin[T] : T * TileLen; }
  int64_t tileEnd(int64_t T) const {
    return Begin ? Begin[T + 1] : std::min(N, (T + 1) * TileLen);
  }
};

/// Pseudo-tiles of \p TileLen over a flat stream, rounded up to a
/// multiple of kClassifyWindow so tile starts stay window-aligned.
TileSource streamSource(const int32_t *Idx, int64_t N,
                        int64_t TileLen = kStreamTileLen);

/// The whole of Idx[0..N) as one tile.
TileSource rangeSource(const int32_t *Idx, int64_t N);

/// Explicit tiles over an already-permuted stream.
TileSource tilesSource(const int32_t *TiledIdx,
                       const std::vector<int64_t> &TileBegin, int BlockBits);

/// Classifies one contiguous index range as a single tile.  Exposed as
/// the unit the tests and the verify reference classifier check against.
TileInfo classifyRange(const int32_t *Idx, int64_t N);

/// Classifies a flat stream in fixed pseudo-tiles of \p TileLen
/// (BlockBits = -1 in the result).  Used for streams that have no
/// inspector tiling: SpMV's COO row stream and the verification
/// pipelines.
PatternResult classifyStream(const int32_t *Idx, int64_t N,
                             int64_t TileLen = kStreamTileLen);

/// Classifies an inspector tiling: element p of the tiled stream is
/// Values[T.Order[p]], tile t spans [T.TileBegin[t], T.TileBegin[t+1]).
/// This is what graph::PreparedGraph memoizes, applying the permutation
/// on the fly so the permuted copy never needs to be materialized.
PatternResult classifyTiling(const inspector::TilingResult &T,
                             const int32_t *Values);

/// Same, over an already-permuted stream (apps that materialized the
/// tiled order locally).
PatternResult classifyTiles(const int32_t *TiledIdx,
                            const std::vector<int64_t> &TileBegin,
                            int BlockBits);

/// Resolves a per-run request against the process-wide CFV_PATTERN
/// default (core::PatternMode::Env defers to envMode()).
Mode resolveMode(core::PatternMode Request);

/// True when \p R is usable by this binary: schema version matches and
/// the tile table is present.  Stale cached artifacts fail this and the
/// caller re-classifies instead of misreading them.
inline bool compatible(const PatternResult *R) {
  return R && R->SchemaVersion == kPatternSchemaVersion && !R->Tiles.empty();
}

} // namespace pattern
} // namespace cfv

#endif // CFV_PATTERN_CLASSIFY_H
