#include "src/softmem/heap.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/softmem/address_space.h"
#include "src/softmem/fault.h"
#include "src/softmem/object_table.h"

namespace fob {
namespace {

constexpr Addr kBase = 0x10000000;
constexpr size_t kHeapSize = 1 << 20;

class HeapTest : public ::testing::Test {
 protected:
  HeapTest() : heap_(space_, table_, kBase, kHeapSize) {}

  AddressSpace space_{kBase, kHeapSize};
  ObjectTable table_;
  Heap heap_;
};

TEST_F(HeapTest, MallocReturnsUsableBlock) {
  Addr p = heap_.Malloc(100, "buf");
  ASSERT_NE(p, 0u);
  EXPECT_EQ(heap_.BlockSize(p), 100u);
  EXPECT_TRUE(heap_.BlockIntact(p));
  std::string data(100, 'z');
  EXPECT_TRUE(space_.Write(p, data.data(), data.size()));
}

TEST_F(HeapTest, MallocRegistersDataUnit) {
  Addr p = heap_.Malloc(64, "named");
  const DataUnit* unit = table_.LookupByAddress(p + 10);
  ASSERT_NE(unit, nullptr);
  EXPECT_EQ(unit->name, "named");
  EXPECT_EQ(unit->kind, UnitKind::kHeap);
  EXPECT_EQ(unit->base, p);
  EXPECT_EQ(unit->size, 64u);
}

TEST_F(HeapTest, MallocZeroBytesStillDistinct) {
  Addr a = heap_.Malloc(0, "a");
  Addr b = heap_.Malloc(0, "b");
  EXPECT_NE(a, 0u);
  EXPECT_NE(b, 0u);
  EXPECT_NE(a, b);
}

TEST_F(HeapTest, FreshBlocksAreZeroed) {
  Addr p = heap_.Malloc(32, "buf");
  uint8_t bytes[32];
  ASSERT_TRUE(space_.Read(p, bytes, sizeof(bytes)));
  for (uint8_t b : bytes) {
    EXPECT_EQ(b, 0);
  }
}

TEST_F(HeapTest, FreeRetiresUnitAndAllowsReuse) {
  Addr p = heap_.Malloc(64, "buf");
  UnitId unit = heap_.BlockUnit(p);
  heap_.Free(p);
  EXPECT_FALSE(table_.Lookup(unit)->live);
  Addr q = heap_.Malloc(64, "again");
  EXPECT_EQ(q, p);  // first fit reuses the space
}

TEST_F(HeapTest, DoubleFreeFaults) {
  Addr p = heap_.Malloc(64, "buf");
  heap_.Free(p);
  try {
    heap_.Free(p);
    FAIL() << "expected fault";
  } catch (const Fault& f) {
    EXPECT_EQ(f.kind(), FaultKind::kDoubleFree);
  }
}

TEST_F(HeapTest, InvalidFreeFaults) {
  Addr p = heap_.Malloc(64, "buf");
  try {
    heap_.Free(p + 8);  // interior pointer
    FAIL() << "expected fault";
  } catch (const Fault& f) {
    EXPECT_EQ(f.kind(), FaultKind::kInvalidFree);
  }
  heap_.Free(p);
}

TEST_F(HeapTest, OverrunPastPayloadCorruptsFooterAndFaultsAtFree) {
  Addr p = heap_.Malloc(40, "victim");
  // Write past the end of the payload — this is what an unchecked program's
  // buffer overrun does physically.
  std::string spill(8, 'A');
  ASSERT_TRUE(space_.Write(p + 40, spill.data(), spill.size()));
  EXPECT_FALSE(heap_.BlockIntact(p));
  try {
    heap_.Free(p);
    FAIL() << "expected heap corruption fault";
  } catch (const Fault& f) {
    EXPECT_EQ(f.kind(), FaultKind::kHeapCorruption);
  }
}

TEST_F(HeapTest, OverrunIntoNextHeaderFaultsWhenNeighborFreed) {
  Addr a = heap_.Malloc(32, "a");
  Addr b = heap_.Malloc(32, "b");
  ASSERT_GT(b, a);
  // Overrun from a's payload all the way over b's header.
  std::string spill(static_cast<size_t>(b - a), 'B');
  ASSERT_TRUE(space_.Write(a, spill.data(), spill.size()));
  try {
    heap_.Free(b);
    FAIL() << "expected heap corruption fault";
  } catch (const Fault& f) {
    EXPECT_EQ(f.kind(), FaultKind::kHeapCorruption);
  }
}

TEST_F(HeapTest, ReallocGrowPreservesContents) {
  Addr p = heap_.Malloc(16, "grow");
  std::string data = "0123456789abcdef";
  ASSERT_TRUE(space_.Write(p, data.data(), 16));
  Addr q = heap_.Realloc(p, 64);
  ASSERT_NE(q, 0u);
  std::string readback(16, '\0');
  ASSERT_TRUE(space_.Read(q, readback.data(), 16));
  EXPECT_EQ(readback, data);
  EXPECT_EQ(heap_.BlockSize(q), 64u);
  EXPECT_EQ(heap_.BlockSize(p), 0u);  // old block gone
}

TEST_F(HeapTest, ReallocShrinkPreservesPrefix) {
  Addr p = heap_.Malloc(64, "shrink");
  std::string data(64, 'q');
  ASSERT_TRUE(space_.Write(p, data.data(), 64));
  Addr q = heap_.Realloc(p, 8);
  ASSERT_NE(q, 0u);
  std::string readback(8, '\0');
  ASSERT_TRUE(space_.Read(q, readback.data(), 8));
  EXPECT_EQ(readback, std::string(8, 'q'));
}

TEST_F(HeapTest, OutOfMemoryReturnsZero) {
  Addr p = heap_.Malloc(kHeapSize * 2, "too big");
  EXPECT_EQ(p, 0u);
}

TEST_F(HeapTest, ExhaustAndRecover) {
  std::vector<Addr> blocks;
  for (;;) {
    Addr p = heap_.Malloc(4096, "chunk");
    if (p == 0) {
      break;
    }
    blocks.push_back(p);
  }
  EXPECT_GT(blocks.size(), 100u);
  for (Addr p : blocks) {
    heap_.Free(p);
  }
  EXPECT_EQ(heap_.live_blocks(), 0u);
  // Coalescing restored one big range: a large allocation succeeds again.
  Addr big = heap_.Malloc(kHeapSize / 2, "big");
  EXPECT_NE(big, 0u);
}

TEST_F(HeapTest, AccountingCounters) {
  Addr a = heap_.Malloc(10, "a");
  Addr b = heap_.Malloc(20, "b");
  EXPECT_EQ(heap_.malloc_count(), 2u);
  EXPECT_EQ(heap_.bytes_in_use(), 30u);
  heap_.Free(a);
  EXPECT_EQ(heap_.free_count(), 1u);
  EXPECT_EQ(heap_.bytes_in_use(), 20u);
  heap_.Free(b);
}

TEST_F(HeapTest, BlocksDoNotOverlap) {
  std::vector<std::pair<Addr, size_t>> blocks;
  for (size_t size : {1u, 7u, 16u, 100u, 4000u, 3u, 64u}) {
    Addr p = heap_.Malloc(size, "b");
    ASSERT_NE(p, 0u);
    for (const auto& [base, len] : blocks) {
      EXPECT_TRUE(p + size <= base || base + len <= p)
          << "block at " << p << " overlaps block at " << base;
    }
    blocks.emplace_back(p, size);
  }
}

}  // namespace
}  // namespace fob
