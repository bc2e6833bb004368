#include "src/softmem/oob_registry.h"

namespace fob {

const char* PointerStatusName(PointerStatus status) {
  switch (status) {
    case PointerStatus::kInBounds:
      return "in-bounds";
    case PointerStatus::kNull:
      return "null";
    case PointerStatus::kOobBelow:
      return "out-of-bounds (below)";
    case PointerStatus::kOobAbove:
      return "out-of-bounds (above)";
    case PointerStatus::kDangling:
      return "dangling";
    case PointerStatus::kWild:
      return "wild";
  }
  return "?";
}

PointerStatus OobRegistry::Classify(const DataUnit* u, Addr addr, size_t n) {
  if (addr < kNullGuardSize) {
    return PointerStatus::kNull;
  }
  if (u == nullptr) {
    return PointerStatus::kWild;
  }
  if (!u->live) {
    return PointerStatus::kDangling;
  }
  if (u->Contains(addr, n == 0 ? 1 : n)) {
    return PointerStatus::kInBounds;
  }
  return addr < u->base ? PointerStatus::kOobBelow : PointerStatus::kOobAbove;
}

void OobRegistry::Note(PointerStatus status) {
  ++total_;
  ++counts_[static_cast<size_t>(status)];
}

}  // namespace fob
