#include "src/softmem/object_table.h"

#include <gtest/gtest.h>

#include "src/softmem/page_map.h"

namespace fob {
namespace {

TEST(ObjectTableTest, RegisterAndLookup) {
  ObjectTable table;
  UnitId id = table.Register(0x1000, 64, UnitKind::kHeap, "buf");
  ASSERT_NE(id, kInvalidUnit);
  const DataUnit* unit = table.Lookup(id);
  ASSERT_NE(unit, nullptr);
  EXPECT_EQ(unit->base, 0x1000u);
  EXPECT_EQ(unit->size, 64u);
  EXPECT_EQ(unit->kind, UnitKind::kHeap);
  EXPECT_TRUE(unit->live);
  EXPECT_EQ(unit->name, "buf");
}

TEST(ObjectTableTest, LookupInvalidId) {
  ObjectTable table;
  EXPECT_EQ(table.Lookup(kInvalidUnit), nullptr);
  EXPECT_EQ(table.Lookup(999), nullptr);
}

TEST(ObjectTableTest, LookupByAddressFindsContainingUnit) {
  ObjectTable table;
  UnitId a = table.Register(0x1000, 64, UnitKind::kHeap, "a");
  UnitId b = table.Register(0x2000, 32, UnitKind::kStack, "b");
  EXPECT_EQ(table.LookupByAddress(0x1000)->id, a);
  EXPECT_EQ(table.LookupByAddress(0x103f)->id, a);
  EXPECT_EQ(table.LookupByAddress(0x1040), nullptr);  // one past the end
  EXPECT_EQ(table.LookupByAddress(0x2010)->id, b);
  EXPECT_EQ(table.LookupByAddress(0x0fff), nullptr);
  EXPECT_EQ(table.LookupByAddress(0x3000), nullptr);
}

TEST(ObjectTableTest, RetireRemovesFromAddressIndexButKeepsRecord) {
  ObjectTable table;
  UnitId id = table.Register(0x1000, 64, UnitKind::kHeap, "buf");
  table.Retire(id);
  EXPECT_EQ(table.LookupByAddress(0x1010), nullptr);
  const DataUnit* unit = table.Lookup(id);
  ASSERT_NE(unit, nullptr);
  EXPECT_FALSE(unit->live);
  EXPECT_EQ(unit->name, "buf");
}

TEST(ObjectTableTest, AddressReuseAfterRetire) {
  ObjectTable table;
  UnitId first = table.Register(0x1000, 64, UnitKind::kHeap, "first");
  table.Retire(first);
  UnitId second = table.Register(0x1000, 32, UnitKind::kHeap, "second");
  const DataUnit* found = table.LookupByAddress(0x1008);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->id, second);
}

TEST(ObjectTableTest, RetireIsIdempotent) {
  ObjectTable table;
  UnitId id = table.Register(0x1000, 64, UnitKind::kHeap, "buf");
  table.Retire(id);
  table.Retire(id);  // no crash, no effect
  EXPECT_EQ(table.live_count(), 0u);
  EXPECT_EQ(table.total_registered(), 1u);
}

TEST(ObjectTableTest, ZeroSizeUnit) {
  ObjectTable table;
  UnitId id = table.Register(0x1000, 0, UnitKind::kGlobal, "empty");
  const DataUnit* found = table.LookupByAddress(0x1000);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->id, id);
  EXPECT_EQ(table.LookupByAddress(0x1001), nullptr);
}

TEST(ObjectTableTest, ContainsRange) {
  ObjectTable table;
  UnitId id = table.Register(0x1000, 16, UnitKind::kHeap, "buf");
  const DataUnit* unit = table.Lookup(id);
  EXPECT_TRUE(unit->Contains(0x1000, 16));
  EXPECT_TRUE(unit->Contains(0x100f, 1));
  EXPECT_FALSE(unit->Contains(0x100f, 2));   // straddles the end
  EXPECT_FALSE(unit->Contains(0x1010, 1));   // one past
  EXPECT_FALSE(unit->Contains(0x0fff, 1));   // one before
  EXPECT_FALSE(unit->Contains(0x1000, 17));  // too big
}

TEST(ObjectTableTest, LiveCountTracksRegistrationAndRetirement) {
  ObjectTable table;
  UnitId a = table.Register(0x1000, 8, UnitKind::kHeap, "a");
  UnitId b = table.Register(0x2000, 8, UnitKind::kHeap, "b");
  EXPECT_EQ(table.live_count(), 2u);
  table.Retire(a);
  EXPECT_EQ(table.live_count(), 1u);
  table.Retire(b);
  EXPECT_EQ(table.live_count(), 0u);
  EXPECT_EQ(table.total_registered(), 2u);
}

TEST(ObjectTableTest, UnitKindNames) {
  EXPECT_STREQ(UnitKindName(UnitKind::kHeap), "heap");
  EXPECT_STREQ(UnitKindName(UnitKind::kStack), "stack");
  EXPECT_STREQ(UnitKindName(UnitKind::kGlobal), "global");
}

TEST(ObjectTableTest, FirstLiveOverlapFindsStraddlersAndInteriors) {
  ObjectTable table;
  UnitId a = table.Register(0x10F00, 0x200, UnitKind::kHeap, "straddler");  // crosses 0x11000
  UnitId b = table.Register(0x12080, 64, UnitKind::kHeap, "interior");
  // A unit that begins before the range but extends into it.
  EXPECT_EQ(table.FirstLiveOverlap(0x11000, 0x12000)->id, a);
  // A unit that begins inside the range.
  EXPECT_EQ(table.FirstLiveOverlap(0x12000, 0x13000)->id, b);
  EXPECT_EQ(table.FirstLiveOverlap(0x13000, 0x14000), nullptr);
  table.Retire(a);
  EXPECT_EQ(table.FirstLiveOverlap(0x11000, 0x12000), nullptr);
}

// ---- Page-map coherence through Register/Retire ---------------------------

TEST(ObjectTablePageMapTest, SoleOwnerAndMixedPages) {
  ObjectTable table;
  PageMap map(0, 1 << 20);
  table.AttachPageMap(&map);
  UnitId big = table.Register(0x10000, 3 * kPageSize, UnitKind::kHeap, "big");
  // Every page of a page-multiple unit is sole-owned, interiors included.
  EXPECT_EQ(map.OwnerOf(0x10000), big);
  EXPECT_EQ(map.OwnerOf(0x11000 + 123), big);
  EXPECT_EQ(map.OwnerOf(0x12fff), big);
  EXPECT_EQ(map.OverlapCount(0x11000), 1u);
  // Two small units packed on one page make it mixed.
  UnitId a = table.Register(0x20000, 64, UnitKind::kHeap, "a");
  EXPECT_EQ(map.OwnerOf(0x20000), a);
  UnitId b = table.Register(0x20100, 64, UnitKind::kHeap, "b");
  (void)b;
  EXPECT_EQ(map.OwnerOf(0x20000), kInvalidUnit);
  EXPECT_EQ(map.OverlapCount(0x20000), 2u);
}

TEST(ObjectTablePageMapTest, RetireOfSoleOwnerClearsOwnership) {
  ObjectTable table;
  PageMap map(0, 1 << 20);
  table.AttachPageMap(&map);
  UnitId id = table.Register(0x10000, kPageSize, UnitKind::kHeap, "buf");
  ASSERT_EQ(map.OwnerOf(0x10000), id);
  table.Retire(id);
  EXPECT_EQ(map.OwnerOf(0x10000), kInvalidUnit);
  EXPECT_EQ(map.OverlapCount(0x10000), 0u);
}

TEST(ObjectTablePageMapTest, UnitsOutsideTheWindowAreNotTracked) {
  ObjectTable table;
  PageMap map(0x10000, 2 * kPageSize);
  // Straddles the window's end: only the covered page gets a record.
  UnitId edge = table.Register(0x11800, kPageSize, UnitKind::kHeap, "edge");
  EXPECT_EQ(map.OwnerOf(0x11800), kInvalidUnit);  // not attached yet
  table.AttachPageMap(&map);
  EXPECT_EQ(map.OwnerOf(0x11800), edge);
  EXPECT_EQ(map.Find(0x12000), nullptr);
  EXPECT_EQ(map.Find(0xf000), nullptr);
  table.Retire(edge);
  EXPECT_EQ(map.OverlapCount(0x11000), 0u);
}

TEST(ObjectTablePageMapTest, RetireRefreshesPreviouslyMixedPage) {
  ObjectTable table;
  PageMap map(0, 1 << 20);
  table.AttachPageMap(&map);
  UnitId a = table.Register(0x10000, 64, UnitKind::kHeap, "a");
  UnitId b = table.Register(0x10100, 64, UnitKind::kHeap, "b");
  UnitId c = table.Register(0x10200, 64, UnitKind::kHeap, "c");
  EXPECT_EQ(map.OwnerOf(0x10000), kInvalidUnit);  // mixed, 3 live
  table.Retire(a);
  EXPECT_EQ(map.OwnerOf(0x10000), kInvalidUnit);  // still mixed, 2 live
  table.Retire(c);
  // Dropping to exactly one live overlap refreshes the owner from the table.
  EXPECT_EQ(map.OwnerOf(0x10000), b);
  EXPECT_EQ(map.OverlapCount(0x10000), 1u);
}

TEST(ObjectTablePageMapTest, RegisterOverPreviouslyMixedPage) {
  ObjectTable table;
  PageMap map(0, 1 << 20);
  table.AttachPageMap(&map);
  UnitId a = table.Register(0x10000, 64, UnitKind::kHeap, "a");
  UnitId b = table.Register(0x10100, 64, UnitKind::kHeap, "b");
  table.Retire(a);
  table.Retire(b);
  // The page's live set emptied; a fresh unit becomes its sole owner.
  UnitId c = table.Register(0x10040, 128, UnitKind::kHeap, "c");
  EXPECT_EQ(map.OwnerOf(0x10000), c);
  EXPECT_EQ(map.OverlapCount(0x10000), 1u);
}

TEST(ObjectTablePageMapTest, StraddlingUnitRefreshedAfterNeighbourRetires) {
  ObjectTable table;
  PageMap map(0, 1 << 20);
  table.AttachPageMap(&map);
  // `wide` crosses into the second page, where it shares with `tail`.
  UnitId wide = table.Register(0x10800, kPageSize, UnitKind::kHeap, "wide");
  UnitId tail = table.Register(0x11900, 64, UnitKind::kHeap, "tail");
  EXPECT_EQ(map.OwnerOf(0x10800), wide);        // first page: sole
  EXPECT_EQ(map.OwnerOf(0x11000), kInvalidUnit);  // second page: mixed
  table.Retire(tail);
  // The refresh must find `wide` even though it begins on the prior page.
  EXPECT_EQ(map.OwnerOf(0x11000), wide);
}

TEST(ObjectTablePageMapTest, AttachPopulatesExistingLiveUnits) {
  ObjectTable table;
  UnitId a = table.Register(0x10000, kPageSize, UnitKind::kHeap, "a");
  UnitId dead = table.Register(0x20000, 64, UnitKind::kHeap, "dead");
  table.Retire(dead);
  PageMap map(0, 1 << 20);
  table.AttachPageMap(&map);
  EXPECT_EQ(map.OwnerOf(0x10000), a);
  // Retired units are not resurrected by attach.
  EXPECT_EQ(map.OverlapCount(0x20000), 0u);
}

TEST(ObjectTablePageMapTest, ZeroSizeUnitSpansOneByte) {
  ObjectTable table;
  PageMap map(0, 1 << 20);
  table.AttachPageMap(&map);
  UnitId id = table.Register(0x10000, 0, UnitKind::kGlobal, "empty");
  EXPECT_EQ(map.OwnerOf(0x10000), id);
  EXPECT_EQ(map.OverlapCount(0x10000), 1u);
  table.Retire(id);
  EXPECT_EQ(map.OverlapCount(0x10000), 0u);
}

}  // namespace
}  // namespace fob
