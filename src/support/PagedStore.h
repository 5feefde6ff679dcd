//===- support/PagedStore.h - Per-node state paid per touched page -*- C++ -*-===//
//
// Part of the cliffedge project: a reproduction of "Cliff-Edge Consensus:
// Agreeing on the Precipice" (Taiani, Porter, Coulson, Raynal, PaCT 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-node state whose cost follows the failure wave, not the world size.
/// The paper's detection is border-local (§2.1): in a million-node world a
/// job's crashes reach a few hundred nodes, so a dense N-sized array per
/// piece of node state makes every job pay O(N) to allocate, initialise
/// and free state nobody touches.
///
/// A PagedStore cuts the id space into fixed pages of 512 ids. A
/// directory holds one pointer per page (about 16 KB for a million ids),
/// so indexing is two loads: directory slot, then page slot. A page is
/// allocated and default-constructed on the first *write* (mut()) to any
/// of its ids; reads (operator[]) of an absent page return the pristine,
/// default-constructed value and allocate nothing. An idle job therefore
/// costs the directory alone, and a job whose wave touches k pages costs
/// k pages. The last page of a store is cut to the ids it covers, so a
/// small world pays for its own ids only.
///
/// Pages are small on purpose. An outage on a wide grid touches a few ids
/// in each of a handful of rows; a page the size of several rows makes the
/// job write, free and stream through cache whole rows nobody reads. And
/// 512 slots of the largest record kept here (the host core's per-node slot,
/// under 100 bytes) stay below malloc's mmap threshold, so a page is a
/// plain heap allocation whose cost never depends on what the process
/// allocated and freed before.
///
/// Pages never move once allocated: references returned by mut() stay
/// valid for the store's lifetime. The store is not synchronized; every
/// owner is single-threaded. Keep a store keyed by the id itself: a
/// store striped by some other key (say, one per shard, indexed by
/// id / shards) spreads a local outage over a page per stripe.
///
//===----------------------------------------------------------------------===//

#ifndef CLIFFEDGE_SUPPORT_PAGEDSTORE_H
#define CLIFFEDGE_SUPPORT_PAGEDSTORE_H

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace cliffedge {
namespace support {

template <typename T> class PagedStore {
public:
  static constexpr uint32_t PageBits = 9;
  static constexpr uint32_t PageSize = uint32_t(1) << PageBits;

  PagedStore() = default;
  /// A store for ids [0, NumIds), every one pristine.
  explicit PagedStore(size_t NumIds)
      : NumIds(NumIds), Dir((NumIds + PageSize - 1) >> PageBits) {}

  PagedStore(const PagedStore &O) : NumIds(O.NumIds), Dir(O.Dir.size()) {
    for (size_t P = 0; P < Dir.size(); ++P)
      if (O.Dir[P]) {
        Dir[P] = allocPage(P);
        std::copy(O.Dir[P].get(), O.Dir[P].get() + pageLen(P),
                  Dir[P].get());
      }
  }
  PagedStore &operator=(const PagedStore &O) {
    if (this != &O)
      *this = PagedStore(O);
    return *this;
  }
  PagedStore(PagedStore &&) noexcept = default;
  PagedStore &operator=(PagedStore &&) noexcept = default;

  /// Number of ids the store covers.
  size_t size() const { return NumIds; }

  /// Reads \p Id without allocating: the pristine value when its page was
  /// never written (or \p Id lies beyond the store).
  const T &operator[](size_t Id) const {
    size_t P = Id >> PageBits;
    if (P < Dir.size() && Dir[P])
      return Dir[P][Id & (PageSize - 1)];
    return pristine();
  }

  /// Writable slot of \p Id; materializes its page on first use.
  T &mut(size_t Id) {
    assert(Id < NumIds && "paged store id out of range");
    std::unique_ptr<T[]> &Page = Dir[Id >> PageBits];
    if (!Page)
      Page = allocPage(Id >> PageBits);
    return Page[Id & (PageSize - 1)];
  }

  /// Number of materialized pages.
  size_t pages() const {
    return static_cast<size_t>(
        std::count_if(Dir.begin(), Dir.end(),
                      [](const std::unique_ptr<T[]> &P) { return !!P; }));
  }

  /// Calls F(Id, Value) for every id on a materialized page, ascending.
  /// Ids on absent pages are pristine and skipped.
  template <typename Fn> void forEachMaterialized(Fn &&F) const {
    for (size_t P = 0; P < Dir.size(); ++P)
      if (const T *Page = Dir[P].get())
        for (size_t I = 0, E = pageLen(P); I < E; ++I)
          F(P * PageSize + I, Page[I]);
  }

private:
  static const T &pristine() {
    static const T Pristine = T();
    return Pristine;
  }
  size_t pageLen(size_t P) const {
    return std::min<size_t>(PageSize, NumIds - P * PageSize);
  }
  std::unique_ptr<T[]> allocPage(size_t P) const {
    return std::unique_ptr<T[]>(new T[pageLen(P)]());
  }

  size_t NumIds = 0;
  std::vector<std::unique_ptr<T[]>> Dir;
};

} // namespace support
} // namespace cliffedge

#endif // CLIFFEDGE_SUPPORT_PAGEDSTORE_H
