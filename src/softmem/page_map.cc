#include "src/softmem/page_map.h"

namespace fob {

template <typename Fn>
void PageMap::ForEachEntryOf(const DataUnit& unit, Fn&& fn) {
  size_t span = unit.size == 0 ? 1 : unit.size;
  Addr first = PageBaseOf(unit.base);
  Addr last = PageBaseOf(unit.base + span - 1);
  for (Addr page = first;; page += kPageSize) {
    size_t index = static_cast<size_t>(page - base_) / kPageSize;
    if (index < entries_.size()) {
      fn(page, entries_[index]);
    }
    if (page == last) {
      break;
    }
  }
}

void PageMap::OnUnitRegistered(const DataUnit& unit) {
  ForEachEntryOf(unit, [&](Addr, Entry& entry) {
    ++entry.overlaps;
    entry.owner = entry.overlaps == 1 ? unit.id : kInvalidUnit;
  });
}

void PageMap::OnUnitRetired(const DataUnit& unit, const ObjectTable& table) {
  ForEachEntryOf(unit, [&](Addr page, Entry& entry) {
    if (entry.overlaps == 0) {
      return;  // unit registered before the map attached; nothing tracked
    }
    --entry.overlaps;
    if (entry.overlaps == 1) {
      // The page just dropped back to a single live unit: refresh the owner
      // so a previously mixed page re-earns the fast path. This search is
      // paid per retired page, not per access.
      const DataUnit* survivor = table.FirstLiveOverlap(page, page + kPageSize);
      entry.owner = survivor != nullptr ? survivor->id : kInvalidUnit;
    } else {
      entry.owner = kInvalidUnit;
    }
  });
}

UnitId PageMap::OwnerOf(Addr addr) const {
  const Entry* entry = Find(addr);
  return entry == nullptr ? kInvalidUnit : entry->owner;
}

uint32_t PageMap::OverlapCount(Addr addr) const {
  const Entry* entry = Find(addr);
  return entry == nullptr ? 0 : entry->overlaps;
}

}  // namespace fob
