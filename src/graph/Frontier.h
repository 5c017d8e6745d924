//===- graph/Frontier.h - Active-vertex frontier ----------------*- C++ -*-===//
//
// Part of the cfv project: reproduction of Jiang & Agrawal, CGO 2018.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The active-vertex set of the wave-frontier algorithms (Figure 2's
/// active_vertices list).  Vertices are deduplicated on insertion via a
/// flags array; the flags are stored as int32_t so SIMD kernels can
/// gather and scatter membership directly (AVX-512 gathers are 32-bit
/// granular).
///
/// A wave fills the frontier, then publish() puts its members in
/// increasing vertex order, so the next wave's active-edge list is a
/// sequence of CSR rows in storage order.  How a wave records members is
/// chosen up front by beginWave() from a bound on its insertions:
///
///   sparse  members are appended as they arrive (insertion order until
///           publication) and publish() sorts them, so a high-diameter
///           graph never pays O(NumNodes) per wave;
///   dense   insertions write only the flags (a SIMD insertion is one
///           masked scatter) and publish() recovers the members with one
///           vector scan of the flags.
///
//===----------------------------------------------------------------------===//

#ifndef CFV_GRAPH_FRONTIER_H
#define CFV_GRAPH_FRONTIER_H

#include "simd/Traits.h"
#include "util/AlignedAlloc.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <utility>

namespace cfv {
namespace graph {

/// A wave planning at least NumNodes / kDenseFrontierDivisor insertions
/// is dense (DESIGN.md §16 has the measurement behind the value).
inline constexpr int64_t kDenseFrontierDivisor = 64;

/// Deduplicating set of active vertices with O(1) insert, gatherable
/// membership flags, and vertex-ordered publication.
class Frontier {
public:
  explicit Frontier(int32_t NumNodes)
      : InSet(static_cast<std::size_t>(NumNodes), 0) {}

  /// Chooses how the coming wave records members (see the file comment).
  /// \p MaxAdds bounds the insertions before the next publish().  The
  /// frontier must be empty.
  void beginWave(int64_t MaxAdds) {
    assert(Members.empty() && "beginWave() on a non-empty frontier");
    FlagsOnly = MaxAdds * kDenseFrontierDivisor >=
                static_cast<int64_t>(InSet.size());
  }

  /// Adds \p V unless already present.
  void add(int32_t V) {
    assert(V >= 0 && V < static_cast<int32_t>(InSet.size()));
    if (InSet[V])
      return;
    InSet[V] = 1;
    if (!FlagsOnly)
      Members.push_back(V);
  }

  /// Adds the vertices in the lanes of \p M, skipping those already
  /// present.  The lanes in \p M must hold pairwise distinct vertices, as
  /// the committing lanes of every SIMD relaxation sweep do.
  template <typename B> void addLanes(simd::Mask16 M, simd::VecI32<B> Idx) {
    using IVec = simd::VecI32<B>;
    const IVec One = IVec::broadcast(1);
    if (FlagsOnly) {
      One.maskScatter(M, InSet.data(), Idx);
      return;
    }
    const IVec Seen = IVec::maskGather(IVec::zero(), M, InSet.data(), Idx);
    const simd::Mask16 Fresh =
        static_cast<simd::Mask16>(Seen.eq(IVec::zero()) & M);
    if (!Fresh)
      return;
    One.maskScatter(Fresh, InSet.data(), Idx);
    alignas(64) int32_t Buf[simd::kMaxLanes];
    const int K = Idx.compressStore(Fresh, Buf);
    Members.insert(Members.end(), Buf, Buf + K);
  }

  /// Puts the members in strictly increasing vertex order: a flag scan
  /// after a dense wave, a sort after a sparse one.  vertices(), size()
  /// and empty() describe a dense wave only once it is published.
  template <typename B> void publish() {
    if (!FlagsOnly) {
      std::sort(Members.begin(), Members.end());
      return;
    }
    using IVec = simd::VecI32<B>;
    constexpr int64_t Lanes = B::kLanes;
    const int64_t N = static_cast<int64_t>(InSet.size());
    const IVec Zero = IVec::zero();
    auto Present = [&](int64_t V) {
      const int64_t Left = N - V;
      const simd::Mask16 Tail =
          Left >= Lanes ? simd::BackendTraits<B>::kFullMask
                        : static_cast<simd::Mask16>((1u << Left) - 1u);
      return static_cast<simd::Mask16>(
          IVec::maskLoad(Zero, Tail, InSet.data() + V).gt(Zero) & Tail);
    };
    int64_t Count = 0;
    for (int64_t V = 0; V < N; V += Lanes)
      Count += simd::popcount(Present(V));
    Members.resize(static_cast<std::size_t>(Count));
    int32_t *Out = Members.data();
    for (int64_t V = 0; V < N; V += Lanes) {
      const IVec Ids =
          IVec::broadcast(static_cast<int32_t>(V)) + IVec::iota();
      Out += Ids.compressStore(Present(V), Out);
    }
    FlagsOnly = false;
  }

  bool contains(int32_t V) const { return InSet[V] != 0; }
  bool empty() const { return Members.empty(); }
  int64_t size() const { return static_cast<int64_t>(Members.size()); }

  const AlignedVector<int32_t> &vertices() const { return Members; }

  /// Membership flags (1/0 per vertex), gatherable with 32-bit indices.
  const int32_t *flags() const { return InSet.data(); }

  /// Empties the set; the next wave starts sparse until beginWave().
  void clear() {
    if (FlagsOnly)
      std::fill(InSet.begin(), InSet.end(), 0);
    else
      for (int32_t V : Members)
        InSet[V] = 0;
    Members.clear();
    FlagsOnly = false;
  }

  /// Swaps contents with \p Other in O(1).
  void swap(Frontier &Other) {
    InSet.swap(Other.InSet);
    Members.swap(Other.Members);
    std::swap(FlagsOnly, Other.FlagsOnly);
  }

private:
  AlignedVector<int32_t> InSet;
  AlignedVector<int32_t> Members;
  /// A dense wave before publish(): Members is not maintained.
  bool FlagsOnly = false;
};

} // namespace graph
} // namespace cfv

#endif // CFV_GRAPH_FRONTIER_H
