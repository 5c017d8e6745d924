//===- apps/frontier/FrontierEngine.h - Wave-frontier algorithms -*- C++ -*-=//
//
// Part of the cfv project: reproduction of Jiang & Agrawal, CGO 2018.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The shared engine behind the paper's three wave-frontier graph
/// algorithms (Figures 9-11): SSSP, SSWP and WCC.  All three follow
/// Figure 2's pattern -- iterate over the active edges, compute a
/// candidate value from the source endpoint, and relax the destination
/// with an associative operator (min for SSSP/WCC, max for SSWP), adding
/// improved destinations to the next frontier.  The engine implements the
/// four versions the paper evaluates:
///
///   nontiling_serial     Figure 2 verbatim.
///   nontiling_and_mask   conflict-masking (Figure 3) on the active edges.
///   nontiling_and_invec  in-vector reduction (invec_min / invec_max).
///   tiling_and_grouping  one up-front tiling+grouping of the full edge
///                        list, reused every iteration by scanning groups
///                        and masking off lanes whose source is inactive
///                        (the reuse technique of Jiang et al., ICS'16);
///                        its preparation cost is reported separately.
///
/// The three nontiling versions never materialize the active-edge list:
/// the frontier is kept in vertex order, so the list is a run of CSR rows
/// that each sweep copies through a fixed, L2-sized stage and relaxes
/// stage by stage (DESIGN.md §16).
///
/// The relaxations are exact (min/max never reassociate lossily), so all
/// four versions produce bit-identical results.
///
//===----------------------------------------------------------------------===//

#ifndef CFV_APPS_FRONTIER_FRONTIERENGINE_H
#define CFV_APPS_FRONTIER_FRONTIERENGINE_H

#include "core/RunOptions.h"
#include "graph/Graph.h"
#include "util/Stats.h"

namespace cfv {
namespace apps {

/// Which wave-frontier application to run.  BFS (level = hop count) is
/// SSSP over unit weights, included as the classic wave-frontier kernel
/// the paper's §1 cites.
enum class FrApp { Sssp, Sswp, Wcc, Bfs };

/// The four execution strategies of Figures 9-11.
enum class FrVersion {
  NontilingSerial,
  NontilingMask,
  NontilingInvec,
  TilingGrouping,
};

/// Edges per stage of the nontiling versions' frontier walk: 192 KiB of
/// staged source, destination and weight arrays, inside one core's L2,
/// and a multiple of every backend's lane count, so SIMD vectors form
/// exactly as they would over the whole active-edge list.
inline constexpr int64_t kFrontierStageEdges = 16384;

const char *appName(FrApp A);
const char *versionName(FrVersion V);

struct FrontierOptions : core::RunOptions {
  FrontierOptions() { MaxIterations = 1000; }

  int32_t Source = 0; ///< ignored by WCC (all vertices start active)
  int TileBlockBits = 16;
};

struct FrontierResult {
  /// Converged per-vertex value: distance (SSSP), width (SSWP), or
  /// component label (WCC).
  AlignedVector<float> Value;
  int Iterations = 0;
  /// Total active edges relaxed across all iterations.
  int64_t EdgesProcessed = 0;
  double ComputeSeconds = 0.0;
  /// Local CSR build (0 when a shared or mapped adjacency was reused).
  /// Prep time like tiling and grouping, but common to every version, so
  /// totalSeconds() leaves it out of the version comparison.
  double CsrSeconds = 0.0;
  double TilingSeconds = 0.0;
  double GroupingSeconds = 0.0;
  double SimdUtil = 1.0; ///< mask version only
  double MeanD1 = 0.0;   ///< invec version only
  /// Whether RunOptions::DeadlineSteadySeconds stopped iteration early.
  bool TimedOut = false;
  /// Per-pass D1 / useful-lane distributions (empty unless the version
  /// that ran records them and observability is compiled in).
  LaneHistogram D1Hist;
  LaneHistogram UtilHist;

  double totalSeconds() const {
    return ComputeSeconds + TilingSeconds + GroupingSeconds;
  }
};

/// Runs application \p A on \p G with strategy \p V until the frontier
/// empties.  SSSP and SSWP require edge weights on \p G.
FrontierResult runFrontier(const graph::EdgeList &G, FrApp A, FrVersion V,
                           const FrontierOptions &O = {});

} // namespace apps
} // namespace cfv

#endif // CFV_APPS_FRONTIER_FRONTIERENGINE_H
