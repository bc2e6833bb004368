// Page-granular unit map: the O(1) translation layer for checked accesses.
//
// The Jones-Kelly checker's per-access cost is the object-table interval
// search. For the overwhelmingly common case — a valid access through a
// pointer whose referent is the only live unit on its page — that search is
// pure overhead: the page alone identifies the unit. The PageMap keeps one
// small record per page of the shard's reservation, in a dense vector
// indexed by page number: the page's *sole live owner* when exactly one live
// data unit overlaps the page, and the count of live units that do (fed by
// ObjectTable::Register/Retire). A checked access then resolves with index
// arithmetic: page whose owner is the pointer's intended referent, access
// inside the referent's extent → done, no interval search. The bytes
// themselves come from the AddressSpace's base + offset translation. A mixed
// page (two or more live units), a page outside the window, or an
// out-of-extent range falls into the full checking code (Memory::CheckAccess)
// exactly as before — byte-identically, since the fast path only accepts
// accesses the checking code would have classified kInBounds.
//
// Coherence: the map is written only from the place the address→unit
// relation changes — ObjectTable::Register/Retire, which notifies its
// attached PageMap (fob::Shard attaches its map at construction, so the map
// can never skew from the table it serves). When a retire drops a page's
// live overlap count back to one, the owner is refreshed from the table (an
// O(log n) search per page, paid on retire rather than per access), so a
// page that was mixed can become sole-owned again.
//
// Ownership is tracked for every live unit; pages whose units are smaller
// than a page (packed heap blocks, stack locals) are simply mixed and keep
// today's slow-path cost. That matches the workloads this layer is for:
// large buffers, arenas and tables — Apache's request buffers, MC's hash
// probing — whose pages are sole-owned and whose accesses dominate.

#ifndef SRC_SOFTMEM_PAGE_MAP_H_
#define SRC_SOFTMEM_PAGE_MAP_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/softmem/address_space.h"
#include "src/softmem/object_table.h"

namespace fob {

class PageMap {
 public:
  // One page's record. `owner` is the sole live unit overlapping the page,
  // or kInvalidUnit when the page has no live unit or is mixed (overlaps !=
  // 1). The invariant owner != kInvalidUnit ⇒ overlaps == 1 is what the fast
  // path relies on.
  struct Entry {
    UnitId owner = kInvalidUnit;
    uint32_t overlaps = 0;
  };

  // Covers the pages of [base, base + size); units outside it are not
  // tracked, so accesses to them always take the slow path.
  PageMap(Addr base, size_t size) : base_(base), entries_(PageRoundUp(size) / kPageSize) {}
  PageMap(const PageMap&) = delete;
  PageMap& operator=(const PageMap&) = delete;

  // ---- ObjectTable notifications ------------------------------------------
  void OnUnitRegistered(const DataUnit& unit);
  // Called after the unit left the address index, so `table` only sees the
  // survivors — what a page's refreshed owner is computed from.
  void OnUnitRetired(const DataUnit& unit, const ObjectTable& table);

  // The record for addr's page, or nullptr outside the window. The fast-path
  // entry point.
  const Entry* Find(Addr addr) const {
    size_t page = static_cast<size_t>(addr - base_) / kPageSize;  // wraps below base_
    return page < entries_.size() ? &entries_[page] : nullptr;
  }

  // ---- Introspection (tests, accounting) ----------------------------------
  UnitId OwnerOf(Addr addr) const;
  uint32_t OverlapCount(Addr addr) const;

 private:
  // Visits the record of each page in the window overlapped by the unit
  // (zero-size units span one byte for overlap purposes, matching
  // OobRegistry::Classify's n==0 → 1), with that page's base address.
  template <typename Fn>
  void ForEachEntryOf(const DataUnit& unit, Fn&& fn);

  Addr base_;
  std::vector<Entry> entries_;
};

}  // namespace fob

#endif  // SRC_SOFTMEM_PAGE_MAP_H_
