//===- core/Dispatch.h - Runtime backend dispatch ---------------*- C++ -*-===//
//
// Part of the cfv project: reproduction of Jiang & Agrawal, CGO 2018.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runtime selection between the compiled-in kernel sets.  The fat
/// binary carries a baseline (scalar-backend) tier and, when the
/// compiler supported them, AVX2 and AVX-512 instantiations of every
/// application kernel (core/Variant.h); this module probes the CPU once
/// (simd/CpuId.h) and binds the public apps API to the best set that can
/// actually execute.
///
/// Selection precedence:
///   1. setBackend()             -- programmatic override (cfv_run's
///                                  --backend flag, tests)
///   2. CFV_BACKEND environment  -- "scalar" | "avx2" | "avx512"
///   3. best available           -- avx512 > avx2 > scalar, gated on the
///                                  compiled tiers and the CPU/OS probe
///
/// Requesting a tier that cannot run degrades gracefully to the next
/// best available one, with a one-line note to stderr (once per process)
/// instead of the SIGILL a compile-time-selected binary produces on a
/// lesser machine.  `cfv_run --backend list` and the serve "backends"
/// verb surface the same information programmatically (backendInfos()).
///
//===----------------------------------------------------------------------===//

#ifndef CFV_CORE_DISPATCH_H
#define CFV_CORE_DISPATCH_H

#include "apps/agg/Aggregation.h"
#include "apps/frontier/FrontierEngine.h"
#include "apps/mesh/MeshSolver.h"
#include "apps/moldyn/Moldyn.h"
#include "apps/pagerank/PageRank.h"
#include "apps/pagerank/PageRank64.h"
#include "apps/rbk/ReduceByKey.h"
#include "apps/spmv/Spmv.h"
#include "core/RunOptions.h"
#include "pattern/Classify.h"
#include "util/Status.h"

#include <string>
#include <vector>

namespace cfv {
namespace core {

// BackendKind lives in core/RunOptions.h (shared with the cfv::run
// facade); re-exported here so existing includers keep compiling.

/// "scalar" / "avx2" / "avx512".
const char *backendName(BackendKind K);

/// Parses a user-supplied backend name (CFV_BACKEND, --backend).
Expected<BackendKind> parseBackendKind(const std::string &Name);

/// One function pointer per dispatched application entry point, bound to
/// a single backend's kernel set.
struct DispatchTable {
  BackendKind Kind;
  const char *Name;
  int Lanes; ///< 32-bit lanes per vector of this kernel set

  apps::PageRankResult (*PageRank)(const graph::EdgeList &, apps::PrVersion,
                                   const apps::PageRankOptions &);
  apps::PageRank64Result (*PageRank64)(const graph::EdgeList &,
                                       apps::Pr64Version,
                                       const apps::PageRankOptions &);
  apps::FrontierResult (*Frontier)(const graph::EdgeList &, apps::FrApp,
                                   apps::FrVersion,
                                   const apps::FrontierOptions &);
  void (*MoldynForces)(apps::MoldynSim &, apps::MdVersion);
  apps::AggResult (*Aggregation)(const int32_t *, const float *, int64_t,
                                 int64_t, apps::AggVersion,
                                 const core::RunOptions &);
  int64_t (*ReduceByKeyInvec)(const int32_t *, const float *, int64_t,
                              int32_t *, float *);
  apps::RbkResult (*RbkComparison)(const graph::EdgeList &, int,
                                   const core::RunOptions &);
  apps::SpmvResult (*Spmv)(const graph::EdgeList &, const float *,
                           apps::SpmvVersion, int, const core::RunOptions &);
  apps::MeshRunResult (*MeshDiffusion)(const apps::Mesh &, const float *,
                                       int, float, apps::MeshVersion,
                                       const core::RunOptions &);
  /// The pattern classifier (pattern/ClassifyKernel.h) behind the public
  /// pattern::classify* entry points.
  pattern::PatternResult (*Classify)(const pattern::TileSource &);
};

/// True when the AVX-512 kernel set was compiled in AND the host CPU/OS
/// can execute it.
bool avx512Available();

/// Why avx512Available() is false ("kernels not compiled in", "CPU lacks
/// AVX-512CD", ...); nullptr when it is available.
const char *avx512UnavailableReason();

/// True when the AVX2 kernel set (synthesized conflict detection) was
/// compiled in AND the host CPU/OS can execute it.
bool avx2Available();

/// Why avx2Available() is false; nullptr when it is available.
const char *avx2UnavailableReason();

/// One row of the backend matrix: what a tier is, whether this binary
/// carries it, and whether this host can run it.  Powers `cfv_run
/// --backend list` and the serve {"cmd":"backends"} verb.
struct BackendInfo {
  BackendKind Kind;
  const char *Name;         ///< "scalar" / "avx2" / "avx512"
  int Lanes;                ///< 32-bit lanes per vector
  const char *Conflict;     ///< conflict-detection mechanism
  bool Compiled;            ///< tier present in this binary
  bool Available;           ///< compiled AND executable on this host
  const char *Unavailable;  ///< reason when !Available, else nullptr
};

/// The full tier matrix, scalar first.  Every known tier is listed even
/// when not compiled in, so callers can render a complete picture.
std::vector<BackendInfo> backendInfos();

/// The table for \p K.  Requesting a tier that is unavailable degrades
/// to the next best available one (avx512 -> avx2 -> scalar) and emits a
/// one-time stderr note.
const DispatchTable &dispatchFor(BackendKind K);

/// Pure resolution helper (exposed for tests): applies the precedence
/// rules to an explicit CFV_BACKEND value.  \p EnvValue may be null.
/// When the value is unparseable, *Note receives a diagnostic and the
/// automatic choice (best of the available tiers) is returned.
BackendKind resolveBackendKind(const char *EnvValue, bool HaveAvx512,
                               bool HaveAvx2, std::string *Note);

/// The process-wide selected table (cached after first resolution).
const DispatchTable &dispatch();

/// Overrides the selection (cfv_run's --backend flag, tests); takes
/// effect on the next dispatch() call.
void setBackend(BackendKind K);

/// Drops any override and the cached resolution (tests).
void resetBackendForTest();

} // namespace core
} // namespace cfv

#endif // CFV_CORE_DISPATCH_H
