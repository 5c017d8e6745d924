//===- core/Dispatch.cpp - Runtime backend dispatch -----------------------===//
//
// Part of the cfv project: reproduction of Jiang & Agrawal, CGO 2018.
//
//===----------------------------------------------------------------------===//
//
// Binds the per-variant kernel sets (core/Backends.h) into dispatch
// tables, resolves which one runs, and defines the public apps API as
// thin forwarders through the selected table.
//
//===----------------------------------------------------------------------===//

#include "core/Dispatch.h"

#include "core/Backends.h"
#include "simd/CpuId.h"

#include <cstdio>
#include <cstdlib>

using namespace cfv;
using namespace cfv::core;

namespace {

constexpr DispatchTable ScalarTable = {
    BackendKind::Scalar,
    "scalar",
    16,
    &apps::b_scalar::runPageRank,
    &apps::b_scalar::runPageRank64,
    &apps::b_scalar::runFrontier,
    &apps::b_scalar::moldynForces,
    &apps::b_scalar::runAggregation,
    &apps::b_scalar::reduceByKeyInvec,
    &apps::b_scalar::runRbkComparison,
    &apps::b_scalar::runSpmv,
    &apps::b_scalar::runMeshDiffusion,
    &pattern::b_scalar::classify,
};

#if CFV_BUILD_AVX2
constexpr DispatchTable Avx2Table = {
    BackendKind::Avx2,
    "avx2",
    8,
    &apps::b_avx2::runPageRank,
    &apps::b_avx2::runPageRank64,
    &apps::b_avx2::runFrontier,
    &apps::b_avx2::moldynForces,
    &apps::b_avx2::runAggregation,
    &apps::b_avx2::reduceByKeyInvec,
    &apps::b_avx2::runRbkComparison,
    &apps::b_avx2::runSpmv,
    &apps::b_avx2::runMeshDiffusion,
    &pattern::b_avx2::classify,
};
#endif

#if CFV_BUILD_AVX512
constexpr DispatchTable Avx512Table = {
    BackendKind::Avx512,
    "avx512",
    16,
    &apps::b_avx512::runPageRank,
    &apps::b_avx512::runPageRank64,
    &apps::b_avx512::runFrontier,
    &apps::b_avx512::moldynForces,
    &apps::b_avx512::runAggregation,
    &apps::b_avx512::reduceByKeyInvec,
    &apps::b_avx512::runRbkComparison,
    &apps::b_avx512::runSpmv,
    &apps::b_avx512::runMeshDiffusion,
    &pattern::b_avx512::classify,
};
#endif

// Cached selection state.
const DispatchTable *Selected = nullptr;
bool HaveOverride = false;
BackendKind Override = BackendKind::Scalar;

void noteOnce(const char *Message) {
  static bool Printed = false;
  if (Printed)
    return;
  Printed = true;
  std::fprintf(stderr, "cfv: %s\n", Message);
}

} // namespace

const char *core::backendName(BackendKind K) {
  switch (K) {
  case BackendKind::Avx512:
    return "avx512";
  case BackendKind::Avx2:
    return "avx2";
  case BackendKind::Scalar:
    break;
  }
  return "scalar";
}

Expected<BackendKind> core::parseBackendKind(const std::string &Name) {
  if (Name == "scalar")
    return BackendKind::Scalar;
  if (Name == "avx2")
    return BackendKind::Avx2;
  if (Name == "avx512")
    return BackendKind::Avx512;
  return Status::error(ErrorCode::InvalidArgument,
                       "unknown backend '" + Name +
                           "' (expected scalar|avx2|avx512)");
}

bool core::avx512Available() {
#if CFV_BUILD_AVX512
  return simd::caps().hasAvx512();
#else
  return false;
#endif
}

const char *core::avx512UnavailableReason() {
#if CFV_BUILD_AVX512
  const simd::Caps &C = simd::caps();
  if (C.hasAvx512())
    return nullptr;
  if (!C.Avx512F)
    return "CPU lacks AVX-512F";
  if (!C.Avx512Cd)
    return "CPU lacks AVX-512CD (vpconflictd)";
  return "OS has not enabled AVX-512 (zmm/opmask) register state";
#else
  return "AVX-512 kernels not compiled into this binary";
#endif
}

bool core::avx2Available() {
#if CFV_BUILD_AVX2
  return simd::caps().hasAvx2();
#else
  return false;
#endif
}

const char *core::avx2UnavailableReason() {
#if CFV_BUILD_AVX2
  const simd::Caps &C = simd::caps();
  if (C.hasAvx2())
    return nullptr;
  if (!C.Avx2)
    return "CPU lacks AVX2";
  return "OS has not enabled AVX (ymm) register state";
#else
  return "AVX2 kernels not compiled into this binary";
#endif
}

std::vector<BackendInfo> core::backendInfos() {
  std::vector<BackendInfo> Infos;
  Infos.push_back({BackendKind::Scalar, "scalar", 16,
                   "emulated (portable C++)", true, true, nullptr});
  Infos.push_back({BackendKind::Avx2, "avx2", 8,
                   "synthesized (rotate/compare network)",
#if CFV_BUILD_AVX2
                   true,
#else
                   false,
#endif
                   avx2Available(), avx2UnavailableReason()});
  Infos.push_back({BackendKind::Avx512, "avx512", 16,
                   "native (vpconflictd)",
#if CFV_BUILD_AVX512
                   true,
#else
                   false,
#endif
                   avx512Available(), avx512UnavailableReason()});
  return Infos;
}

const DispatchTable &core::dispatchFor(BackendKind K) {
  if (K == BackendKind::Avx512) {
#if CFV_BUILD_AVX512
    if (simd::caps().hasAvx512())
      return Avx512Table;
#endif
    // Degrade one tier at a time: avx512 -> avx2 -> scalar.
    static bool Warned = false;
    if (!Warned) {
      Warned = true;
      std::fprintf(stderr,
                   "cfv: avx512 backend requested but unavailable (%s); "
                   "falling back to %s\n",
                   avx512UnavailableReason(),
                   avx2Available() ? "avx2" : "scalar");
    }
#if CFV_BUILD_AVX2
    if (simd::caps().hasAvx2())
      return Avx2Table;
#endif
    return ScalarTable;
  }
  if (K == BackendKind::Avx2) {
#if CFV_BUILD_AVX2
    if (simd::caps().hasAvx2())
      return Avx2Table;
#endif
    static bool Warned = false;
    if (!Warned) {
      Warned = true;
      std::fprintf(stderr,
                   "cfv: avx2 backend requested but unavailable (%s); "
                   "falling back to scalar\n",
                   avx2UnavailableReason());
    }
  }
  return ScalarTable;
}

BackendKind core::resolveBackendKind(const char *EnvValue, bool HaveAvx512,
                                     bool HaveAvx2, std::string *Note) {
  if (EnvValue && *EnvValue) {
    const Expected<BackendKind> K = parseBackendKind(EnvValue);
    if (K.ok())
      return *K;
    if (Note)
      *Note = "ignoring CFV_BACKEND: " + K.status().message();
  }
  if (HaveAvx512)
    return BackendKind::Avx512;
  return HaveAvx2 ? BackendKind::Avx2 : BackendKind::Scalar;
}

const DispatchTable &core::dispatch() {
  if (Selected)
    return *Selected;
  BackendKind K;
  if (HaveOverride) {
    K = Override;
  } else {
    std::string Note;
    K = resolveBackendKind(std::getenv("CFV_BACKEND"), avx512Available(),
                           avx2Available(), &Note);
    if (!Note.empty())
      noteOnce(Note.c_str());
  }
  Selected = &dispatchFor(K);
  return *Selected;
}

void core::setBackend(BackendKind K) {
  HaveOverride = true;
  Override = K;
  Selected = nullptr;
}

void core::resetBackendForTest() {
  HaveOverride = false;
  Selected = nullptr;
}

//===----------------------------------------------------------------------===//
// Public apps API: forwarders through the selected dispatch table.
//===----------------------------------------------------------------------===//

namespace cfv {
namespace apps {

PageRankResult runPageRank(const graph::EdgeList &G, PrVersion V,
                           const PageRankOptions &O) {
  return dispatch().PageRank(G, V, O);
}

PageRank64Result runPageRank64(const graph::EdgeList &G, Pr64Version V,
                               const PageRankOptions &O) {
  return dispatch().PageRank64(G, V, O);
}

FrontierResult runFrontier(const graph::EdgeList &G, FrApp A, FrVersion V,
                           const FrontierOptions &O) {
  return dispatch().Frontier(G, A, V, O);
}

AggResult runAggregation(const int32_t *Keys, const float *Vals, int64_t N,
                         int64_t Cardinality, AggVersion V,
                         const core::RunOptions &O) {
  return dispatch().Aggregation(Keys, Vals, N, Cardinality, V, O);
}

AggResult runAggregation(const int32_t *Keys, const float *Vals, int64_t N,
                         int64_t Cardinality, AggVersion V) {
  return dispatch().Aggregation(Keys, Vals, N, Cardinality, V,
                                core::RunOptions{});
}

AggResult runAggregationWithPolicy(const int32_t *Keys, const float *Vals,
                                   int64_t N, int64_t Cardinality,
                                   InvecPolicy Policy) {
  core::RunOptions O;
  O.Policy = Policy;
  return dispatch().Aggregation(Keys, Vals, N, Cardinality,
                                AggVersion::LinearInvec, O);
}

int64_t reduceByKeyInvec(const int32_t *Keys, const float *Vals, int64_t N,
                         int32_t *OutKeys, float *OutVals) {
  return dispatch().ReduceByKeyInvec(Keys, Vals, N, OutKeys, OutVals);
}

RbkResult runRbkComparison(const graph::EdgeList &G, int Iterations,
                           const core::RunOptions &O) {
  return dispatch().RbkComparison(G, Iterations, O);
}

RbkResult runRbkComparison(const graph::EdgeList &G, int Iterations) {
  return dispatch().RbkComparison(G, Iterations, core::RunOptions{});
}

SpmvResult runSpmv(const graph::EdgeList &A, const float *X, SpmvVersion V,
                   int Repeats, const core::RunOptions &O) {
  return dispatch().Spmv(A, X, V, Repeats, O);
}

SpmvResult runSpmv(const graph::EdgeList &A, const float *X, SpmvVersion V,
                   int Repeats) {
  return dispatch().Spmv(A, X, V, Repeats, core::RunOptions{});
}

MeshRunResult runMeshDiffusion(const Mesh &M, const float *U0, int Sweeps,
                               float Dt, MeshVersion V,
                               const core::RunOptions &O) {
  return dispatch().MeshDiffusion(M, U0, Sweeps, Dt, V, O);
}

MeshRunResult runMeshDiffusion(const Mesh &M, const float *U0, int Sweeps,
                               float Dt, MeshVersion V) {
  return dispatch().MeshDiffusion(M, U0, Sweeps, Dt, V, core::RunOptions{});
}

} // namespace apps
} // namespace cfv
