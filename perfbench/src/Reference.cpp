//===- perfbench/src/Reference.cpp - Independent answer checks ------------===//

#include "Reference.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <queue>
#include <unordered_map>

using cfv::AppResult;

namespace perfbench {

namespace {

/// Adjacency by source built here (counting sort), not by graph::buildCsr.
struct Adjacency {
  std::vector<int64_t> Begin;
  std::vector<int64_t> Edge; ///< edge ids grouped by source
};

Adjacency bySource(const Coo &G) {
  Adjacency A;
  A.Begin.assign(static_cast<std::size_t>(G.N) + 1, 0);
  for (int64_t E = 0; E < G.M; ++E)
    ++A.Begin[G.Src[E] + 1];
  for (int32_t V = 0; V < G.N; ++V)
    A.Begin[V + 1] += A.Begin[V];
  std::vector<int64_t> Fill(A.Begin.begin(), A.Begin.end() - 1);
  A.Edge.resize(static_cast<std::size_t>(G.M));
  for (int64_t E = 0; E < G.M; ++E)
    A.Edge[Fill[G.Src[E]]++] = E;
  return A;
}

std::string mismatch(const char *What, int64_t At, double Got, double Want) {
  char Buf[160];
  std::snprintf(Buf, sizeof(Buf), "%s mismatch at %lld: got %.9g want %.9g",
                What, static_cast<long long>(At), Got, Want);
  return Buf;
}

/// Power iteration from 1/N; stops after \p MaxRounds rounds or one round
/// after the first whose L1 change is below \p Tol.  Keeps the vectors of
/// the last three rounds, keyed by round count (round 0 = the start).
std::map<int, std::vector<double>> powerIteration(const Coo &G, int MaxRounds,
                                                  double Tol) {
  const double D = 0.85;
  std::vector<double> OutDeg(G.N, 0.0), Rank(G.N, 1.0 / G.N), Sum(G.N);
  for (int64_t E = 0; E < G.M; ++E)
    OutDeg[G.Src[E]] += 1.0;
  std::map<int, std::vector<double>> Kept{{0, Rank}};
  int Last = MaxRounds;
  for (int It = 1; It <= Last; ++It) {
    std::fill(Sum.begin(), Sum.end(), 0.0);
    for (int64_t E = 0; E < G.M; ++E)
      Sum[G.Dst[E]] += Rank[G.Src[E]] / OutDeg[G.Src[E]];
    double Delta = 0.0;
    for (int32_t V = 0; V < G.N; ++V) {
      const double New = (1.0 - D) / G.N + D * Sum[V];
      Delta += std::fabs(New - Rank[V]);
      Rank[V] = New;
    }
    Kept[It] = Rank;
    Kept.erase(It - 3);
    if (Delta < Tol && Last == MaxRounds)
      Last = std::min(MaxRounds, It + 1);
  }
  return Kept;
}

} // namespace

std::vector<double> refPageRank(const Coo &G, int Iterations) {
  return powerIteration(G, Iterations, 0.0).at(Iterations);
}

std::map<int, std::vector<double>> refPageRankNear(const Coo &G, double Tol,
                                                   int MaxRounds) {
  return powerIteration(G, MaxRounds, Tol);
}

std::vector<double> refDijkstra(const Coo &G, int32_t Source) {
  const Adjacency A = bySource(G);
  const double Inf = std::numeric_limits<double>::infinity();
  std::vector<double> Dist(G.N, Inf);
  using Item = std::pair<double, int32_t>;
  std::priority_queue<Item, std::vector<Item>, std::greater<Item>> Q;
  Dist[Source] = 0.0;
  Q.push({0.0, Source});
  while (!Q.empty()) {
    const auto [Du, U] = Q.top();
    Q.pop();
    if (Du > Dist[U])
      continue;
    for (int64_t I = A.Begin[U]; I < A.Begin[U + 1]; ++I) {
      const int64_t E = A.Edge[I];
      const double Nd = Du + G.W[E];
      if (Nd < Dist[G.Dst[E]]) {
        Dist[G.Dst[E]] = Nd;
        Q.push({Nd, G.Dst[E]});
      }
    }
  }
  return Dist;
}

std::vector<int32_t> refMinReachingLabel(const Coo &G) {
  // Sweep sources in increasing id: the first sweep that reaches v starts
  // at the smallest vertex reaching v.  A vertex labeled earlier already
  // had everything it reaches labeled by an id at most its own.
  const Adjacency A = bySource(G);
  std::vector<int32_t> Label(G.N, -1);
  std::vector<int32_t> Stack;
  for (int32_t S = 0; S < G.N; ++S) {
    if (Label[S] >= 0)
      continue;
    Label[S] = S;
    Stack.push_back(S);
    while (!Stack.empty()) {
      const int32_t U = Stack.back();
      Stack.pop_back();
      for (int64_t I = A.Begin[U]; I < A.Begin[U + 1]; ++I) {
        const int32_t V = G.Dst[A.Edge[I]];
        if (Label[V] < 0) {
          Label[V] = S;
          Stack.push_back(V);
        }
      }
    }
  }
  return Label;
}

std::vector<int32_t> refBfs(const Coo &G, int32_t Source) {
  const Adjacency A = bySource(G);
  std::vector<int32_t> Level(G.N, -1);
  std::vector<int32_t> Cur{Source}, Next;
  Level[Source] = 0;
  for (int32_t L = 1; !Cur.empty(); ++L) {
    Next.clear();
    for (int32_t U : Cur)
      for (int64_t I = A.Begin[U]; I < A.Begin[U + 1]; ++I) {
        const int32_t V = G.Dst[A.Edge[I]];
        if (Level[V] < 0) {
          Level[V] = L;
          Next.push_back(V);
        }
      }
    Cur.swap(Next);
  }
  return Level;
}

std::vector<double> refSpmv(const Coo &G, int Repeats,
                            std::vector<double> &RowAbs) {
  // Row loop over the adjacency: y[r] = sum over the row's edges of w * 1.
  const Adjacency A = bySource(G);
  std::vector<double> Y(G.N, 0.0);
  RowAbs.assign(G.N, 0.0);
  for (int32_t R = 0; R < G.N; ++R)
    for (int64_t I = A.Begin[R]; I < A.Begin[R + 1]; ++I) {
      Y[R] += G.W[A.Edge[I]];
      RowAbs[R] += std::fabs(G.W[A.Edge[I]]);
    }
  for (int32_t R = 0; R < G.N; ++R) {
    Y[R] *= Repeats;
    RowAbs[R] *= Repeats;
  }
  return Y;
}

std::vector<GroupRef> refGroupBy(const int32_t *Keys, const float *Vals,
                                 int64_t Rows) {
  std::unordered_map<int32_t, GroupRef> Map;
  for (int64_t I = 0; I < Rows; ++I) {
    GroupRef &G = Map[Keys[I]];
    G.Key = Keys[I];
    ++G.Cnt;
    G.Sum += Vals[I];
    G.SumSq += static_cast<double>(Vals[I]) * Vals[I];
  }
  std::vector<GroupRef> Out;
  Out.reserve(Map.size());
  for (const auto &KV : Map)
    Out.push_back(KV.second);
  std::sort(Out.begin(), Out.end(),
            [](const GroupRef &A, const GroupRef &B) { return A.Key < B.Key; });
  return Out;
}

std::string checkPageRank(const AppResult &R, const std::vector<double> &Ref) {
  if (R.Values.size() != Ref.size())
    return "pagerank: wrong rank vector length";
  double L1 = 0.0;
  for (std::size_t V = 0; V < Ref.size(); ++V)
    L1 += std::fabs(R.Values[V] - Ref[V]);
  if (!(L1 <= kPageRankL1Tol))
    return mismatch("pagerank L1", 0, L1, kPageRankL1Tol);
  return "";
}

std::string checkSssp(const AppResult &R, const std::vector<double> &Ref) {
  if (R.Values.size() != Ref.size())
    return "sssp: wrong distance vector length";
  for (std::size_t V = 0; V < Ref.size(); ++V) {
    const double Got = R.Values[V], Want = Ref[V];
    if (std::isinf(Want) != std::isinf(Got) ||
        (!std::isinf(Want) &&
         !(std::fabs(Got - Want) <= kSsspRelTol * std::max(1.0, Want))))
      return mismatch("sssp distance", static_cast<int64_t>(V), Got, Want);
  }
  return "";
}

std::string checkLabels(const AppResult &R, const std::vector<int32_t> &Ref) {
  if (R.Values.size() != Ref.size())
    return "wcc: wrong label vector length";
  for (std::size_t V = 0; V < Ref.size(); ++V)
    if (R.Values[V] != static_cast<float>(Ref[V]))
      return mismatch("wcc label", static_cast<int64_t>(V), R.Values[V],
                      Ref[V]);
  return "";
}

std::string checkLevels(const AppResult &R, const std::vector<int32_t> &Ref) {
  if (R.Values.size() != Ref.size())
    return "bfs: wrong level vector length";
  for (std::size_t V = 0; V < Ref.size(); ++V) {
    const float Want = Ref[V] < 0 ? std::numeric_limits<float>::infinity()
                                  : static_cast<float>(Ref[V]);
    if (R.Values[V] != Want)
      return mismatch("bfs level", static_cast<int64_t>(V), R.Values[V],
                      Want);
  }
  return "";
}

std::string checkSpmv(const AppResult &R, const std::vector<double> &Ref,
                      const std::vector<double> &RowAbs) {
  if (R.Values.size() != Ref.size())
    return "spmv: wrong y length";
  for (std::size_t V = 0; V < Ref.size(); ++V)
    if (!(std::fabs(R.Values[V] - Ref[V]) <=
          kSpmvRelTol * RowAbs[V] + 1e-6))
      return mismatch("spmv y", static_cast<int64_t>(V), R.Values[V], Ref[V]);
  return "";
}

std::string checkGroups(const AppResult &R, const std::vector<GroupRef> &Ref) {
  if (R.Groups.size() != Ref.size())
    return mismatch("agg group count", 0, R.Groups.size(), Ref.size());
  for (std::size_t I = 0; I < Ref.size(); ++I) {
    const cfv::apps::GroupAgg &G = R.Groups[I];
    const GroupRef &W = Ref[I];
    if (G.Key != W.Key || static_cast<double>(G.Cnt) != W.Cnt)
      return mismatch("agg key/count", W.Key, G.Cnt, W.Cnt);
    if (!(std::fabs(G.Sum - W.Sum) <= kAggRelTol * std::max(1.0, W.Sum)))
      return mismatch("agg sum", W.Key, G.Sum, W.Sum);
    if (!(std::fabs(G.SumSq - W.SumSq) <=
          kAggRelTol * std::max(1.0, W.SumSq)))
      return mismatch("agg sumsq", W.Key, G.SumSq, W.SumSq);
  }
  return "";
}

std::string checkMoldyn(const AppResult &R, const AppResult &Ref) {
  const auto Close = [](double A, double B) {
    return std::fabs(A - B) <= kMoldynRelTol * std::max(1.0, std::fabs(B));
  };
  if (R.Moldyn.Atoms != Ref.Moldyn.Atoms || R.Moldyn.Pairs != Ref.Moldyn.Pairs)
    return "moldyn: atom or pair count differs from the serial version";
  if (!Close(R.Moldyn.FinalPotential, Ref.Moldyn.FinalPotential))
    return mismatch("moldyn potential", 0, R.Moldyn.FinalPotential,
                    Ref.Moldyn.FinalPotential);
  if (!Close(R.Moldyn.FinalKinetic, Ref.Moldyn.FinalKinetic))
    return mismatch("moldyn kinetic", 0, R.Moldyn.FinalKinetic,
                    Ref.Moldyn.FinalKinetic);
  return "";
}

void corrupt(AppResult &R) {
  for (std::size_t I = R.Values.size() / 2; I < R.Values.size(); ++I)
    if (std::isfinite(R.Values[I])) {
      R.Values[I] = R.Values[I] * 2.0f + 1.0f;
      break;
    }
  if (!R.Groups.empty())
    R.Groups[0].Cnt += 1.0f;
  R.Moldyn.FinalPotential = R.Moldyn.FinalPotential * 1.5 + 1.0;
}

} // namespace perfbench
