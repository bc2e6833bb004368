// Span fast path over checked memory.
//
// An AccessCursor caches the resolved data unit of the last access — its
// identity, bounds, and the object table's retire epoch at resolution time.
// Sequential accesses that stay inside that unit skip the per-access
// Jones-Kelly table search and run as raw copies; anything else (unit
// change, out-of-bounds byte, retired unit, an active access budget) falls
// back to the full per-byte classify-and-continue path in fob::Memory —
// where the shard's page-granular unit map (src/softmem/page_map.h) gets
// the first look, so even the cursor's fallback bytes usually resolve in
// O(1) before the checking code runs.
//
// This is the runtime analogue of the paper's compiler hoisting bounds
// checks out of loops: the observable semantics are bit-identical to the
// byte-at-a-time loop — every cursor operation charges the access budget per
// byte, produces the same per-byte error-log records (same access indices),
// and consumes the manufactured-value sequence identically — only the cost
// of the checks is amortized. tests/test_property_span.cc pins this
// equivalence down for all five policies.
//
// A cursor borrows its Memory; it holds no resources and may be discarded
// freely. Cached state can never go stale undetected: units never move or
// resize, unit ids are never reused, and the cursor revalidates against
// ObjectTable::retire_epoch() before every fast access.

#ifndef SRC_RUNTIME_ACCESS_CURSOR_H_
#define SRC_RUNTIME_ACCESS_CURSOR_H_

#include <cstddef>
#include <cstdint>

#include "src/runtime/memory.h"

namespace fob {

class AccessCursor {
 public:
  explicit AccessCursor(Memory& memory);

  // Each call is observably identical to the same-shaped ReadU8/WriteU8
  // loop on the underlying Memory.
  uint8_t ReadU8(Ptr p);
  void WriteU8(Ptr p, uint8_t v);
  void Read(Ptr p, void* dst, size_t n);
  void Write(Ptr p, const void* src, size_t n);

  // Drops the cached resolution. Never required for correctness (the retire
  // epoch catches staleness); useful to re-warm deliberately in tests.
  void Invalidate();

 private:
  // Length of the prefix of [p, p+n) that the cache proves in bounds, after
  // attempting to (re)resolve p's referent. 0 means take the slow path.
  size_t FastRun(Ptr p, size_t n);
  bool Resolve(Ptr p);

  Memory& memory_;
  bool checked_;  // policy runs the Jones-Kelly check (not Standard)
  UnitId unit_ = kInvalidUnit;
  Addr base_ = 0;
  Addr end_ = 0;
  uint64_t epoch_ = 0;
  bool valid_ = false;
};

}  // namespace fob

#endif  // SRC_RUNTIME_ACCESS_CURSOR_H_
