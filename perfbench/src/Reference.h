//===- perfbench/src/Reference.h - Independent answer checks ----*- C++ -*-===//
//
// Reference answers written in the benchmark, sharing no code with the
// library: each works on raw COO arrays and builds its own adjacency.
// The check functions return "" for a correct answer, else a one-line
// reason.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_REFERENCE_H
#define PERFBENCH_REFERENCE_H

#include "core/Api.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Raw COO input (borrowed).
struct Coo {
  int32_t N = 0;
  int64_t M = 0;
  const int32_t *Src = nullptr;
  const int32_t *Dst = nullptr;
  const float *W = nullptr;
};

// Stated tolerances (see NOTES.md, "Correctness gate").
/// PageRank: L1 distance between the rank vectors (total mass ~1).
constexpr double kPageRankL1Tol = 1e-4;
/// SSSP: relative distance error per vertex.
constexpr double kSsspRelTol = 1e-5;
/// SpMV: per-row error relative to the row's sum of |w * x| (float
/// accumulation over hub rows of ~10^5 edges drifts ~1e-5 of it).
constexpr double kSpmvRelTol = 1e-4;
/// Agg: per-group Sum / SumSq error relative to the group's magnitude;
/// counts must match exactly.
constexpr double kAggRelTol = 1e-3;
/// Moldyn: final kinetic and potential energy against the Serial version.
constexpr double kMoldynRelTol = 1e-3;

/// Plain power iteration in double: \p Iterations rounds from 1/N with
/// damping 0.85, contributions rank(src)/outdeg(src).
std::vector<double> refPageRank(const Coo &G, int Iterations);
/// The same iteration under the app's stopping rule: rounds until the L1
/// change of a round falls below \p Tol, at most \p MaxRounds.  Returns
/// the rank vectors after the stopping round K and after K-1 and K+1,
/// keyed by round count, so a float answer that stops one round either
/// side of K is still checked against its own round.
std::map<int, std::vector<double>> refPageRankNear(const Coo &G, double Tol,
                                                   int MaxRounds);
/// Dijkstra from \p Source (+inf = unreachable).
std::vector<double> refDijkstra(const Coo &G, int32_t Source);
/// The label min-label propagation along edge direction converges to:
/// the smallest vertex id that reaches v (v itself included).
std::vector<int32_t> refMinReachingLabel(const Coo &G);
/// BFS hop counts from \p Source (-1 = unreachable).
std::vector<int32_t> refBfs(const Coo &G, int32_t Source);
/// y = Repeats * (A x) with x = ones, rows by source; \p RowAbs receives
/// Repeats * sum |w| per row (the error scale of the row).
std::vector<double> refSpmv(const Coo &G, int Repeats,
                            std::vector<double> &RowAbs);

struct GroupRef {
  int32_t Key = 0;
  int64_t Cnt = 0;
  double Sum = 0.0;
  double SumSq = 0.0;
};
/// Scalar group-by over the rows, sorted by key, present keys only.
std::vector<GroupRef> refGroupBy(const int32_t *Keys, const float *Vals,
                                 int64_t Rows);

std::string checkPageRank(const cfv::AppResult &R,
                          const std::vector<double> &Ref);
std::string checkSssp(const cfv::AppResult &R, const std::vector<double> &Ref);
std::string checkLabels(const cfv::AppResult &R,
                        const std::vector<int32_t> &Ref);
std::string checkLevels(const cfv::AppResult &R,
                        const std::vector<int32_t> &Ref);
std::string checkSpmv(const cfv::AppResult &R, const std::vector<double> &Ref,
                      const std::vector<double> &RowAbs);
std::string checkGroups(const cfv::AppResult &R,
                        const std::vector<GroupRef> &Ref);
std::string checkMoldyn(const cfv::AppResult &R, const cfv::AppResult &Ref);

/// Alters \p R's answer so that its check must fail (the benchmark's own
/// test of the gate).
void corrupt(cfv::AppResult &R);

} // namespace perfbench

#endif // PERFBENCH_REFERENCE_H
