// The page-granular fast path end to end: hits resolve without the interval
// search, misses fall through byte-identically, and — the hazard this layer
// must never introduce — a page-map hit can never resolve an access through
// a retired unit, even when a fresh allocation has reused the same address.

#include "src/softmem/page_map.h"

#include <gtest/gtest.h>

#include <string>

#include "src/runtime/memory.h"

namespace fob {
namespace {

// A page-aligned pointer inside a larger allocation, so the pages under it
// are sole-owned by the allocation (mirrors bench_check_cost's hot window).
Ptr PageAlignedWindow(Memory& memory, size_t bytes, const std::string& name) {
  Ptr raw = memory.Malloc(bytes + kPageSize, name);
  return Ptr(PageBaseOf(raw.addr + kPageSize - 1), raw.unit);
}

TEST(PageMapFastPathTest, SoleOwnerWindowHitsWithoutErrors) {
  Memory memory(AccessPolicy::kFailureOblivious);
  Ptr window = PageAlignedWindow(memory, kPageSize, "hot");
  uint64_t hits_before = memory.translation_hits();
  uint64_t misses_before = memory.translation_misses();
  for (int i = 0; i < 256; ++i) {
    memory.WriteU8(window + i, static_cast<uint8_t>(i));
  }
  for (int i = 0; i < 256; ++i) {
    EXPECT_EQ(memory.ReadU8(window + i), static_cast<uint8_t>(i));
  }
  EXPECT_EQ(memory.translation_hits() - hits_before, 512u);
  EXPECT_EQ(memory.translation_misses(), misses_before);
  EXPECT_EQ(memory.log().total_errors(), 0u);
}

TEST(PageMapFastPathTest, HitsAreEquivalentUnderEveryPolicy) {
  for (AccessPolicy policy : kAllPolicies) {
    Memory memory(policy);
    Ptr window = PageAlignedWindow(memory, kPageSize, "hot");
    memory.WriteU32(window + 8, 0xfeedface);
    EXPECT_EQ(memory.ReadU32(window + 8), 0xfeedfaceu) << PolicyName(policy);
    EXPECT_GT(memory.translation_hits(), 0u) << PolicyName(policy);
    EXPECT_EQ(memory.log().total_errors(), 0u) << PolicyName(policy);
  }
}

TEST(PageMapFastPathTest, MixedPageFallsToSlowPathWithSameSemantics) {
  Memory memory(AccessPolicy::kFailureOblivious);
  // Small packed blocks share pages, so the page map classifies them mixed;
  // accesses must still round trip (via the interval search), just as
  // misses rather than hits.
  Ptr a = memory.Malloc(48, "a");
  Ptr b = memory.Malloc(48, "b");
  uint64_t hits_before = memory.translation_hits();
  memory.WriteU8(a, 0x11);
  memory.WriteU8(b, 0x22);
  EXPECT_EQ(memory.ReadU8(a), 0x11);
  EXPECT_EQ(memory.ReadU8(b), 0x22);
  EXPECT_EQ(memory.translation_hits(), hits_before);
  EXPECT_GE(memory.translation_misses(), 4u);
  EXPECT_EQ(memory.log().total_errors(), 0u);
}

TEST(PageMapFastPathTest, OutOfBoundsNeverTakesTheFastPath) {
  Memory memory(AccessPolicy::kFailureOblivious);
  Ptr window = PageAlignedWindow(memory, kPageSize, "hot");
  uint64_t hits_before = memory.translation_hits();
  // One past the allocation's end: same owner-page resolution would find
  // the unit, but the extent check must reject it into the slow path, which
  // logs the error exactly as before.
  Ptr raw = Ptr(window.addr, window.unit);
  const DataUnit* unit = memory.objects().Lookup(raw.unit);
  ASSERT_NE(unit, nullptr);
  Ptr past = Ptr(unit->base + unit->size, unit->id);
  memory.WriteU8(past, 0x99);
  EXPECT_EQ(memory.translation_hits(), hits_before);
  EXPECT_EQ(memory.log().total_errors(), 1u);
  EXPECT_EQ(memory.log().recent().back().status, PointerStatus::kOobAbove);
}

// The stale-bounds hazard (the regression this PR's tentpole must not
// introduce): retire a page's sole owner, let a fresh allocation reuse the
// address, then access through the *stale* pointer. The page-map entry now
// names the new unit, so the fast path must miss; the slow path must
// classify the access dangling and the error record must still name the
// dead unit the pointer was derived from.
TEST(PageMapFastPathTest, StaleBoundsAfterRetireAtSameAddress) {
  Memory memory(AccessPolicy::kFailureOblivious);
  Ptr old_block = memory.Malloc(2 * kPageSize, "old");
  Ptr old_window(PageBaseOf(old_block.addr + kPageSize - 1), old_block.unit);
  memory.WriteU8(old_window, 0xaa);
  EXPECT_GT(memory.translation_hits(), 0u);
  memory.Free(old_block);
  // The freed range coalesces with the frontier, so a same-or-larger
  // allocation reuses the same payload address under a fresh unit id.
  Ptr fresh = memory.Malloc(3 * kPageSize, "fresh");
  ASSERT_EQ(fresh.addr, old_block.addr);
  ASSERT_NE(fresh.unit, old_block.unit);
  uint64_t hits_before = memory.translation_hits();
  uint64_t errors_before = memory.log().total_errors();
  // Access through the stale pointer: must NOT resolve through the page map
  // (the page's owner is the fresh unit, not the stale pointer's referent).
  EXPECT_EQ(memory.Classify(old_window), PointerStatus::kDangling);
  memory.WriteU8(old_window, 0xbb);
  EXPECT_EQ(memory.translation_hits(), hits_before);
  EXPECT_EQ(memory.log().total_errors(), errors_before + 1);
  MemErrorRecord record = memory.log().recent().back();
  EXPECT_EQ(record.status, PointerStatus::kDangling);
  EXPECT_EQ(record.unit_name, "old");  // attribution survives retirement
  // The discarded write must not have landed in the fresh allocation
  // (Malloc zero-fills, so any non-zero byte would be the leak).
  EXPECT_EQ(memory.ReadU8(Ptr(old_window.addr, fresh.unit)), 0);
}

// Realloc moves the block: the old unit retires, a new one registers. The
// fast path must follow the move — hits through the new pointer, dangling
// through the old one.
TEST(PageMapFastPathTest, ReallocRetiresOldOwnership) {
  Memory memory(AccessPolicy::kFailureOblivious);
  Ptr p = memory.Malloc(2 * kPageSize, "grow");
  Ptr window(PageBaseOf(p.addr + kPageSize - 1), p.unit);
  memory.WriteU8(window, 0x42);
  EXPECT_GT(memory.translation_hits(), 0u);
  Ptr grown = memory.Realloc(p, 4 * kPageSize);
  ASSERT_FALSE(grown.IsNull());
  ASSERT_NE(grown.unit, p.unit);
  // Contents moved; aligned reads through the new unit hit the fast path.
  Ptr moved(grown.addr + (window.addr - p.addr), grown.unit);
  uint64_t hits_before = memory.translation_hits();
  EXPECT_EQ(memory.ReadU8(moved), 0x42);
  EXPECT_GT(memory.translation_hits(), hits_before);
  // The old pointer dangles and cannot ride the fast path into the map.
  hits_before = memory.translation_hits();
  memory.WriteU8(window, 0x99);
  EXPECT_EQ(memory.translation_hits(), hits_before);
  EXPECT_EQ(memory.log().recent().back().status, PointerStatus::kDangling);
}

// Counters fold into merged logs through MemLog::AddTranslationStats.
TEST(PageMapFastPathTest, CountersSurfaceInMemLog) {
  Memory memory(AccessPolicy::kFailureOblivious);
  Ptr window = PageAlignedWindow(memory, kPageSize, "hot");
  memory.WriteU8(window, 1);
  MemLog merged;
  merged.Merge(memory.log());
  merged.AddTranslationStats(memory.translation_hits(), memory.translation_misses());
  EXPECT_EQ(merged.translation_hits(), memory.translation_hits());
  EXPECT_NE(merged.Summary().find("page-map fast path"), std::string::npos);
}

}  // namespace
}  // namespace fob
