//===- pattern/Classify.cpp - Per-tile index-stream classifier ------------===//
//
// Part of the cfv project: reproduction of Jiang & Agrawal, CGO 2018.
//
//===----------------------------------------------------------------------===//

#include "pattern/Classify.h"

#include "core/Dispatch.h"
#include "util/Env.h"

#include <cstdlib>
#include <cstring>

#if CFV_OBS
#include "obs/Metrics.h"
#endif

using namespace cfv;
using namespace cfv::pattern;

const char *pattern::tileClassName(TileClass C) {
  switch (C) {
  case TileClass::ConflictFree:
    return "conflict_free";
  case TileClass::Monotone:
    return "monotone";
  case TileClass::SmallAlphabet:
    return "small_alphabet";
  case TileClass::HotBucket:
    return "hot_bucket";
  case TileClass::General:
    return "general";
  }
  return "unknown";
}

const char *pattern::modeName(Mode M) {
  switch (M) {
  case Mode::Off:
    return "off";
  case Mode::ClassifyOnly:
    return "classify-only";
  case Mode::On:
    return "on";
  }
  return "unknown";
}

Mode pattern::envMode() {
  static const Mode M = [] {
    const char *V = std::getenv("CFV_PATTERN");
    if (!V || !*V)
      return Mode::On;
    const auto Is = [V](const char *S) { return std::strcmp(V, S) == 0; };
    if (Is("off") || Is("0") || Is("false"))
      return Mode::Off;
    if (Is("classify-only") || Is("classify_only") || Is("stats"))
      return Mode::ClassifyOnly;
    if (Is("on") || Is("1") || Is("true"))
      return Mode::On;
    env::detail::noteOnce("CFV_PATTERN",
                          std::string("CFV_PATTERN='") + V +
                              "' is not off|classify-only|on; using on");
    return Mode::On;
  }();
  return M;
}

Mode pattern::resolveMode(core::PatternMode Request) {
  switch (Request) {
  case core::PatternMode::Off:
    return Mode::Off;
  case core::PatternMode::ClassifyOnly:
    return Mode::ClassifyOnly;
  case core::PatternMode::On:
    return Mode::On;
  case core::PatternMode::Env:
    break;
  }
  return envMode();
}

TileSource pattern::streamSource(const int32_t *Idx, int64_t N,
                                 int64_t TileLen) {
  // Pseudo-tile starts must be window-aligned (the certification
  // contract in Classify.h), so round odd lengths up.
  if (TileLen < kClassifyWindow)
    TileLen = kClassifyWindow;
  TileLen = (TileLen + kClassifyWindow - 1) / kClassifyWindow *
            kClassifyWindow;
  TileSource S;
  S.Values = Idx;
  S.N = N > 0 ? N : 0;
  S.TileLen = TileLen;
  S.NumTiles = (S.N + TileLen - 1) / TileLen;
  return S;
}

TileSource pattern::rangeSource(const int32_t *Idx, int64_t N) {
  TileSource S;
  S.Values = Idx;
  S.N = N > 0 ? N : 0;
  S.TileLen = S.N;
  S.NumTiles = 1;
  return S;
}

TileSource pattern::tilesSource(const int32_t *TiledIdx,
                                const std::vector<int64_t> &TileBegin,
                                int BlockBits) {
  TileSource S;
  S.Values = TiledIdx;
  S.Begin = TileBegin.data();
  S.NumTiles =
      TileBegin.empty() ? 0 : static_cast<int64_t>(TileBegin.size()) - 1;
  S.BlockBits = BlockBits;
  return S;
}

TileInfo pattern::classifyRange(const int32_t *Idx, int64_t N) {
  return core::dispatch().Classify(rangeSource(Idx, N)).Tiles.front();
}

PatternResult pattern::classifyStream(const int32_t *Idx, int64_t N,
                                      int64_t TileLen) {
  return core::dispatch().Classify(streamSource(Idx, N, TileLen));
}

PatternResult pattern::classifyTiling(const inspector::TilingResult &T,
                                      const int32_t *Values) {
  TileSource S = tilesSource(Values, T.TileBegin, T.BlockBits);
  S.Order = T.Order.data();
  return core::dispatch().Classify(S);
}

PatternResult pattern::classifyTiles(const int32_t *TiledIdx,
                                     const std::vector<int64_t> &TileBegin,
                                     int BlockBits) {
  return core::dispatch().Classify(tilesSource(TiledIdx, TileBegin,
                                               BlockBits));
}

//===----------------------------------------------------------------------===//
// Metrics flush (baseline pass only; see Pattern.h for the contract)
//===----------------------------------------------------------------------===//

#if CFV_OBS

void pattern::recordClassification(const PatternResult &R) {
  if (!obs::enabled())
    return;
  obs::MetricsRegistry &Reg = obs::MetricsRegistry::instance();
  for (int C = 0; C < kNumTileClasses; ++C) {
    if (!R.Counts[C])
      continue;
    const std::string Label = std::string("class=\"") +
                              tileClassName(static_cast<TileClass>(C)) +
                              "\"";
    Reg.counter("cfv_pattern_tiles_total", Label,
                "Tiles classified per pattern class")
        .inc(static_cast<uint64_t>(R.Counts[C]));
  }
}

void pattern::recordDispatch(const DispatchCounts &C) {
  if (!obs::enabled())
    return;
  obs::MetricsRegistry &Reg = obs::MetricsRegistry::instance();
  for (int I = 0; I < kNumTileClasses; ++I) {
    const char *Name = tileClassName(static_cast<TileClass>(I));
    const std::string Label = std::string("class=\"") + Name + "\"";
    if (C.Tiles[I])
      Reg.counter("cfv_pattern_dispatch_total", Label,
                  "Tiles routed to a class kernel by pattern dispatch")
          .inc(static_cast<uint64_t>(C.Tiles[I]));
    if (C.Vectors[I])
      Reg.counter("cfv_pattern_dispatch_vectors_total", Label,
                  "Vector passes executed by each class kernel")
          .inc(static_cast<uint64_t>(C.Vectors[I]));
    if (C.Util[I].total()) {
      obs::Histogram &H = Reg.histogram(
          "cfv_pattern_useful_lanes",
          obs::laneBounds(C.LaneWidth > 0 ? C.LaneWidth : 16), Label,
          "Useful lanes per vector pass, per pattern class");
      for (unsigned S = 0; S < LaneHistogram::kSlots; ++S)
        if (C.Util[I].count(S))
          H.observe(static_cast<double>(S), C.Util[I].count(S));
    }
  }
}

#endif // CFV_OBS
