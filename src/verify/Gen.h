//===-- verify/Gen.h - Adversarial workload generators ----------*- C++ -*-===//
//
// Seeded generator library for the verification harness.  Every case is a
// small irregular scatter-reduce stream (index array + value array) whose
// shape is chosen to stress the conflict-handling machinery from the paper:
// skewed index distributions (Zipf / heavy-hitter), fully-conflicting lanes,
// alternating two-index streams (the worst case for Alg2's two-subset
// split), monotone runs, single hot buckets, and tails of every residue
// modulo the 16-lane vector width.  Value patterns cover mixed magnitudes,
// denormals, and huge-but-finite values so the FP tolerance model in
// verify/Oracle.h is exercised, without generating NaN or true infinities
// (which would make "agreement" undefined for min/max).
//
// Determinism is a hard requirement: (Seed, CaseNo) -> CaseSpec -> Workload
// is a pure function, so any failure seen in CI replays locally from the
// printed spec alone, and the corpus file is only a convenience.
//
//===----------------------------------------------------------------------===//

#ifndef CFV_VERIFY_GEN_H
#define CFV_VERIFY_GEN_H

#include "graph/Graph.h"
#include "pattern/Pattern.h"
#include "util/AlignedAlloc.h"
#include "util/Status.h"

#include <cstdint>
#include <string>

namespace cfv {
namespace verify {

/// Shape of the index stream.  The first four delegate to workload::genKeys
/// so the harness stresses the exact distributions the benchmarks run.
enum class IdxPattern {
  Uniform,           ///< uniform over the universe
  Zipf,              ///< power-law skew
  HeavyHitter,       ///< a few indices absorb most references
  MovingCluster,     ///< locality window sliding over the universe
  AllConflict,       ///< every element hits one index (D1 = lanes-1)
  AlternatingPair,   ///< A,B,A,B,... : two dense conflict chains
  Monotone,          ///< sorted with duplicate runs
  HotBucket,         ///< ~90% one index, remainder uniform
  DistinctRoundRobin,///< 0..U-1 cycling: conflict-free when U >= 16
  SmallAlphabet      ///< random draws from a <= 16-value alphabet
};
constexpr int kNumIdxPatterns = 10;
const char *idxPatternName(IdxPattern P);

/// Shape of the value stream.
enum class ValPattern {
  UnitRange,      ///< [-0.5, 0.5)
  MixedMagnitude, ///< magnitudes spread across 2^-20 .. 2^20
  Denormal,       ///< subnormal floats (plus a few zeros)
  HugeMagnitude,  ///< +-2^100 scale: inf-adjacent but overflow-safe in sums
  SignedZeroOnes  ///< {-0.0, +0.0, 1.0, -1.0}
};
constexpr int kNumValPatterns = 5;
const char *valPatternName(ValPattern P);

/// A fully deterministic case description.  genWorkload(Spec) is pure.
struct CaseSpec {
  uint64_t Seed = 0;
  int64_t N = 0;        ///< stream length (0 and tail residues included)
  int32_t Universe = 1; ///< index range [0, Universe)
  IdxPattern Idx = IdxPattern::Uniform;
  ValPattern Val = ValPattern::UnitRange;

  std::string toString() const;
};

/// A materialized case: Idx[i] in [0, Spec.Universe) and a float payload.
/// Integer pipelines derive their payload with intPayload() so float and
/// integer runs share one corpus format.
struct Workload {
  CaseSpec Spec;
  AlignedVector<int32_t> Idx;
  AlignedVector<float> Val;
  /// The tile class the stream *should* classify as, computed by
  /// expectedClass() -- an independent naive reference -- at generation
  /// time.  The oracle asserts pattern::classifyRange agrees, so a
  /// threshold drift between the production classifier and its spec is a
  /// verification failure, not a silent mis-dispatch.
  pattern::TileClass Expected = pattern::TileClass::General;

  int32_t arraySize() const { return Spec.Universe; }
};

/// Naive reference classifier over one whole stream (treated as a single
/// tile with windows aligned to \p Idx).  Deliberately shares no code
/// with the classifier kernel (pattern/ClassifyKernel.h): std::set/
/// std::map over the same published thresholds (per-16-window
/// duplicates, nondecreasing order, <= 16 distinct, strict majority),
/// same precedence.
pattern::TileClass expectedClass(const int32_t *Idx, int64_t N);

/// Materializes \p Spec.  Pure: same spec, same workload, any host.
Workload genWorkload(const CaseSpec &Spec);

/// Deterministic enumeration for cfv_check: case \p CaseNo of run \p Seed.
/// Sweeps the cross product of index patterns, value patterns, tail sizes
/// (0, 1, every residue mod 16, 17, 31, 33, and larger random lengths) and
/// small/large universes, with per-case derived sub-seeds.
CaseSpec specForCase(uint64_t Seed, uint64_t CaseNo);

/// Small bounded integer payload derived from the float payload, so the
/// integer pipelines are exact under any association (no overflow for any
/// stream the generators emit).
AlignedVector<int32_t> intPayload(const Workload &W);

/// Lifts a stream into a SNAP-compatible edge list so the same adversarial
/// index patterns flow through graph I/O, the inspector, and the app
/// kernels: edge i is (i mod Universe) -> Idx[i].  When \p Weighted, the
/// weight is 1 + min(|Val[i]|, 63) (finite, positive, SSSP-safe).
graph::EdgeList toEdgeList(const Workload &W, bool Weighted);

/// Replayable corpus files.  The format is a commented SNAP edge list
/// ("# cfv-corpus v1" header carrying the spec, then "src dst value" rows
/// with hexfloat values for exact round-trips), so a reproducer doubles as
/// a graph input for the standard reader.
Status writeCorpus(const std::string &Path, const Workload &W);
Expected<Workload> readCorpus(const std::string &Path);

} // namespace verify
} // namespace cfv

#endif // CFV_VERIFY_GEN_H
