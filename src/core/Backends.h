//===- core/Backends.h - Per-backend kernel entry points --------*- C++ -*-===//
//
// Part of the cfv project: reproduction of Jiang & Agrawal, CGO 2018.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Declarations of every application entry point in both backend-variant
/// namespaces (see core/Variant.h).  The application translation units
/// define these -- each compilation of an app .cpp defines the set for
/// its own variant -- and core/Dispatch.cpp binds them into the runtime
/// dispatch table.  The b_avx512 set only has definitions when the build
/// compiled the AVX-512 object library (CFV_BUILD_AVX512); the
/// declarations are always safe.
///
/// This header sits above the apps layer on purpose: it is the one
/// sanctioned inversion that lets the dispatch table name concrete
/// kernels (see src/CMakeLists.txt).  Likewise the b_avx2 set
/// (CFV_BUILD_AVX2).
///
//===----------------------------------------------------------------------===//

#ifndef CFV_CORE_BACKENDS_H
#define CFV_CORE_BACKENDS_H

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

namespace cfv {
namespace apps {

// One entry per dispatched kernel set.  Signatures mirror the public
// apps API with a core::RunOptions (threads + invec policy) where the
// public signature lacks an options struct; moldynForces is the
// per-backend force kernel MoldynSim::computeForces routes through.
#define CFV_BACKEND_ENTRY_DECLS                                              \
  PageRankResult runPageRank(const graph::EdgeList &G, PrVersion V,          \
                             const PageRankOptions &O);                      \
  PageRank64Result runPageRank64(const graph::EdgeList &G, Pr64Version V,    \
                                 const PageRankOptions &O);                  \
  FrontierResult runFrontier(const graph::EdgeList &G, FrApp A,              \
                             FrVersion V, const FrontierOptions &O);         \
  void moldynForces(MoldynSim &S, MdVersion V);                              \
  AggResult runAggregation(const int32_t *Keys, const float *Vals,           \
                           int64_t N, int64_t Cardinality, AggVersion V,     \
                           const core::RunOptions &O);                       \
  int64_t reduceByKeyInvec(const int32_t *Keys, const float *Vals,           \
                           int64_t N, int32_t *OutKeys, float *OutVals);     \
  RbkResult runRbkComparison(const graph::EdgeList &G, int Iterations,       \
                             const core::RunOptions &O);                     \
  SpmvResult runSpmv(const graph::EdgeList &A, const float *X,               \
                     SpmvVersion V, int Repeats,                             \
                     const core::RunOptions &O);                             \
  MeshRunResult runMeshDiffusion(const Mesh &M, const float *U0,             \
                                 int Sweeps, float Dt, MeshVersion V,        \
                                 const core::RunOptions &O);

namespace b_scalar {
CFV_BACKEND_ENTRY_DECLS
} // namespace b_scalar

namespace b_avx2 {
CFV_BACKEND_ENTRY_DECLS
} // namespace b_avx2

namespace b_avx512 {
CFV_BACKEND_ENTRY_DECLS
} // namespace b_avx512

#undef CFV_BACKEND_ENTRY_DECLS

} // namespace apps

// The pattern classifier, instantiated per variant by
// pattern/ClassifyKernel.cpp.
namespace pattern {
namespace b_scalar {
PatternResult classify(const TileSource &S);
} // namespace b_scalar
namespace b_avx2 {
PatternResult classify(const TileSource &S);
} // namespace b_avx2
namespace b_avx512 {
PatternResult classify(const TileSource &S);
} // namespace b_avx512
} // namespace pattern

} // namespace cfv

#endif // CFV_CORE_BACKENDS_H
