#include "src/softmem/address_space.h"

#include <gtest/gtest.h>
#include <sanitizer/asan_interface.h>

#include <cstring>
#include <string>

namespace fob {
namespace {

// Every space below reserves this 1 MiB window.
constexpr Addr kWindow = 0x100000;
constexpr size_t kWindowSize = 1 << 20;

class AddressSpaceTest : public ::testing::Test {
 protected:
  AddressSpace space{kWindow, kWindowSize};
};

TEST_F(AddressSpaceTest, UnmappedByDefault) {
  EXPECT_FALSE(space.IsMapped(kWindow, 1));
  uint8_t byte = 0;
  EXPECT_FALSE(space.Read(kWindow, &byte, 1));
  EXPECT_FALSE(space.Write(kWindow, &byte, 1));
  EXPECT_EQ(space.page_count(), 0u);
}

TEST_F(AddressSpaceTest, MapThenReadWrite) {
  space.Map(0x100000, 4096);
  EXPECT_TRUE(space.IsMapped(0x100000, 4096));
  uint32_t value = 0xdeadbeef;
  ASSERT_TRUE(space.Write(0x100010, &value, 4));
  uint32_t readback = 0;
  ASSERT_TRUE(space.Read(0x100010, &readback, 4));
  EXPECT_EQ(readback, 0xdeadbeefu);
}

TEST_F(AddressSpaceTest, FreshPagesAreZero) {
  space.Map(0x180000, kPageSize);
  uint8_t buf[64];
  std::memset(buf, 0xff, sizeof(buf));
  ASSERT_TRUE(space.Read(0x180000, buf, sizeof(buf)));
  for (uint8_t b : buf) {
    EXPECT_EQ(b, 0);
  }
}

TEST_F(AddressSpaceTest, NullGuardNeverMaps) {
  space.Map(0, kNullGuardSize);
  EXPECT_FALSE(space.IsMapped(0, 1));
  EXPECT_FALSE(space.IsMapped(kNullGuardSize - 1, 1));
  uint8_t byte = 7;
  EXPECT_FALSE(space.Write(0, &byte, 1));
  EXPECT_FALSE(space.Write(8, &byte, 1));
  EXPECT_EQ(space.page_count(), 0u);
}

// Only pages inside the reservation can be mapped; a Map straddling either
// edge maps just the covered part.
TEST_F(AddressSpaceTest, PagesOutsideTheWindowNeverMap) {
  space.Map(kWindow - kPageSize, 2 * kPageSize);
  space.Map(kWindow + kWindowSize - kPageSize, 2 * kPageSize);
  EXPECT_EQ(space.page_count(), 2u);
  EXPECT_FALSE(space.IsMapped(kWindow - 1, 1));
  EXPECT_TRUE(space.IsMapped(kWindow, 1));
  EXPECT_TRUE(space.IsMapped(kWindow + kWindowSize - 1, 1));
  EXPECT_FALSE(space.IsMapped(kWindow + kWindowSize, 1));
  uint8_t bytes[2] = {1, 2};
  EXPECT_FALSE(space.Write(kWindow + kWindowSize - 1, bytes, 2));
  EXPECT_EQ(space.base(), kWindow);
  EXPECT_EQ(space.end(), kWindow + kWindowSize);
}

TEST_F(AddressSpaceTest, CrossPageAccess) {
  space.Map(0x100000, 2 * kPageSize);
  std::string data(kPageSize, 'x');
  Addr addr = 0x100000 + kPageSize - 100;  // straddles the page boundary
  ASSERT_TRUE(space.Write(addr, data.data(), data.size()));
  std::string readback(kPageSize, '\0');
  ASSERT_TRUE(space.Read(addr, readback.data(), readback.size()));
  EXPECT_EQ(readback, data);
}

TEST_F(AddressSpaceTest, AccessStraddlingUnmappedPageFails) {
  space.Map(0x100000, kPageSize);  // only the first page
  std::string data(200, 'y');
  Addr addr = 0x100000 + kPageSize - 100;
  EXPECT_FALSE(space.Write(addr, data.data(), data.size()));
  EXPECT_FALSE(space.IsMapped(addr, 200));
  std::string readback(200, '\0');
  EXPECT_FALSE(space.Read(addr, readback.data(), readback.size()));
}

// A faulting write lands its mapped prefix, as a byte-at-a-time store would
// before the fault.
TEST_F(AddressSpaceTest, FailedWriteLandsMappedPrefix) {
  space.Map(0x100000, kPageSize);
  std::string data(200, 'y');
  Addr addr = 0x100000 + kPageSize - 100;
  EXPECT_FALSE(space.Write(addr, data.data(), data.size()));
  std::string prefix(100, '\0');
  ASSERT_TRUE(space.Read(addr, prefix.data(), prefix.size()));
  EXPECT_EQ(prefix, std::string(100, 'y'));
  EXPECT_FALSE(space.Fill(addr, 'z', 200));
  ASSERT_TRUE(space.Read(addr, prefix.data(), prefix.size()));
  EXPECT_EQ(prefix, std::string(100, 'z'));
}

TEST_F(AddressSpaceTest, MapIsIdempotentAndPreservesContents) {
  space.Map(0x100000, kPageSize);
  uint8_t v = 42;
  ASSERT_TRUE(space.Write(0x100123, &v, 1));
  space.Map(0x100000, kPageSize);  // remap
  uint8_t readback = 0;
  ASSERT_TRUE(space.Read(0x100123, &readback, 1));
  EXPECT_EQ(readback, 42);
  EXPECT_EQ(space.page_count(), 1u);
}

TEST_F(AddressSpaceTest, UnmapRemovesWholePagesOnly) {
  space.Map(0x100000, 3 * kPageSize);
  // Partial-page unmap range: only the fully covered middle page goes away.
  space.Unmap(0x100000 + 100, 2 * kPageSize);
  EXPECT_TRUE(space.IsMapped(0x100000, 1));
  EXPECT_FALSE(space.IsMapped(0x100000 + kPageSize, 1));
  EXPECT_TRUE(space.IsMapped(0x100000 + 2 * kPageSize, 1));
  EXPECT_EQ(space.page_count(), 2u);
}

TEST_F(AddressSpaceTest, FillSetsBytes) {
  space.Map(0x100000, kPageSize * 2);
  ASSERT_TRUE(space.Fill(0x100000 + kPageSize - 8, 0xab, 16));  // cross-page
  uint8_t buf[16];
  ASSERT_TRUE(space.Read(0x100000 + kPageSize - 8, buf, 16));
  for (uint8_t b : buf) {
    EXPECT_EQ(b, 0xab);
  }
}

TEST_F(AddressSpaceTest, FillUnmappedFails) {
  EXPECT_FALSE(space.Fill(0x180000, 1, 4));  // inside the window
  EXPECT_FALSE(space.Fill(0x300000, 1, 4));  // outside it
}

TEST_F(AddressSpaceTest, ZeroSizeOperations) {
  space.Map(0x100000, 0);  // no-op
  EXPECT_EQ(space.page_count(), 0u);
  space.Map(0x100000, 1);
  EXPECT_EQ(space.page_count(), 1u);
  uint8_t byte = 0;
  EXPECT_TRUE(space.Read(0x100000, &byte, 0));
  EXPECT_TRUE(space.Write(0x100000, &byte, 0));
}

TEST_F(AddressSpaceTest, MappedBytesAccounting) {
  space.Map(0x100000, kPageSize + 1);  // rounds up to two pages
  EXPECT_EQ(space.mapped_bytes(), 2 * kPageSize);
  space.Unmap(0x100000, kPageSize);
  EXPECT_EQ(space.mapped_bytes(), kPageSize);
}

// Translation is base + offset: consecutive mapped pages are contiguous on
// the host, and any unmapped byte in the range refuses translation.
TEST_F(AddressSpaceTest, TranslateIsBasePlusOffset) {
  space.Map(0x100000, 2 * kPageSize);
  uint8_t* first = space.Translate(0x100000, 1);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(space.Translate(0x100000 + kPageSize + 10, 1), first + kPageSize + 10);
  EXPECT_EQ(space.Translate(0x100000 + 10, 2 * kPageSize - 10), first + 10);
  EXPECT_EQ(space.Translate(0x100000 + 10, 2 * kPageSize - 9), nullptr);
  EXPECT_EQ(space.Translate(0x100000 + 2 * kPageSize, 1), nullptr);
}

// After Unmap the page's host memory goes back to the kernel (madvise
// MADV_DONTNEED), so mapping it again reads zeros, never the old bytes.
TEST_F(AddressSpaceTest, UnmapThenMapReadsZeros) {
  constexpr Addr kBase = 0x100000;
  space.Map(kBase, kPageSize);
  uint8_t value = 0x5a;
  ASSERT_TRUE(space.Write(kBase + 17, &value, 1));
  space.Unmap(kBase, kPageSize);
  uint8_t out = 0;
  EXPECT_FALSE(space.Read(kBase + 17, &out, 1));
  EXPECT_FALSE(space.Write(kBase + 17, &value, 1));
  space.Map(kBase, kPageSize);
  ASSERT_TRUE(space.Read(kBase + 17, &out, 1));
  EXPECT_EQ(out, 0);
}

// Unmapping one page must not disturb other pages, and an unmap that only
// partially covers a page must leave it readable.
TEST_F(AddressSpaceTest, UnmapIsPreciseAboutOtherPages) {
  constexpr Addr kBase = 0x100000;
  space.Map(kBase, kPageSize * 2);
  uint8_t value = 0x7f;
  ASSERT_TRUE(space.Write(kBase + kPageSize + 5, &value, 1));
  space.Unmap(kBase, kPageSize);  // page 1 only
  uint8_t out = 0;
  ASSERT_TRUE(space.Read(kBase + kPageSize + 5, &out, 1));
  EXPECT_EQ(out, 0x7f);
  // Partial coverage: no page is fully inside [base+1, base+kPageSize), so
  // nothing is unmapped.
  space.Map(kBase, kPageSize);
  space.Unmap(kBase + 1, kPageSize - 2);
  EXPECT_TRUE(space.IsMapped(kBase, kPageSize));
}

// The mapped bitmap packs 64 pages per word; pages on either side of a word
// boundary must map, unmap and hold contents independently.
TEST_F(AddressSpaceTest, BitmapKeepsPagesDistinctAcrossWords) {
  constexpr Addr kBase = 0x100000;
  constexpr size_t kPages = 130;  // > 2 bitmap words
  space.Map(kBase, kPages * kPageSize);
  for (size_t i = 0; i < kPages; ++i) {
    uint8_t v = static_cast<uint8_t>(i);
    ASSERT_TRUE(space.Write(kBase + i * kPageSize + 7, &v, 1));
  }
  space.Unmap(kBase + 64 * kPageSize, kPageSize);  // first page of word 1
  EXPECT_TRUE(space.IsMapped(kBase + 63 * kPageSize, kPageSize));
  EXPECT_FALSE(space.IsMapped(kBase + 63 * kPageSize, kPageSize + 1));
  EXPECT_TRUE(space.IsMapped(kBase + 65 * kPageSize, kPageSize));
  for (size_t i = 0; i < kPages; ++i) {
    uint8_t v = 0xff;
    if (i == 64) {
      EXPECT_FALSE(space.Read(kBase + i * kPageSize + 7, &v, 1));
      continue;
    }
    ASSERT_TRUE(space.Read(kBase + i * kPageSize + 7, &v, 1));
    EXPECT_EQ(v, static_cast<uint8_t>(i));
  }
  EXPECT_EQ(space.page_count(), kPages - 1);
}

// An Unmap spanning several bitmap words drops every covered page, and a
// remap brings them all back zeroed.
TEST_F(AddressSpaceTest, UnmapSpanningBitmapWords) {
  constexpr Addr kBase = 0x100000;
  constexpr size_t kPages = 200;
  space.Map(kBase, kPages * kPageSize);
  for (size_t i = 0; i < kPages; ++i) {
    uint8_t v = 0x5a;
    ASSERT_TRUE(space.Write(kBase + i * kPageSize, &v, 1));
  }
  space.Unmap(kBase, kPages * kPageSize);
  EXPECT_EQ(space.page_count(), 0u);
  for (size_t i = 0; i < kPages; ++i) {
    uint8_t out = 0;
    EXPECT_FALSE(space.Read(kBase + i * kPageSize, &out, 1));
  }
  space.Map(kBase, kPages * kPageSize);
  for (size_t i = 0; i < kPages; ++i) {
    uint8_t out = 0xff;
    ASSERT_TRUE(space.Read(kBase + i * kPageSize, &out, 1));
    EXPECT_EQ(out, 0);
  }
}

// In AddressSanitizer builds the unmapped pages of the reservation are
// poisoned, so a host memcpy that runs off a mapped page is reported.
TEST_F(AddressSpaceTest, UnmappedPagesArePoisonedUnderAsan) {
#if defined(__SANITIZE_ADDRESS__)
  space.Map(kWindow + kPageSize, kPageSize);
  const uint8_t* page = space.Translate(kWindow + kPageSize, 1);
  ASSERT_NE(page, nullptr);
  EXPECT_FALSE(__asan_address_is_poisoned(page));
  EXPECT_FALSE(__asan_address_is_poisoned(page + kPageSize - 1));
  EXPECT_TRUE(__asan_address_is_poisoned(page - 1));
  EXPECT_TRUE(__asan_address_is_poisoned(page + kPageSize));
  space.Unmap(kWindow + kPageSize, kPageSize);
  EXPECT_TRUE(__asan_address_is_poisoned(page));
#else
  GTEST_SKIP() << "needs an AddressSanitizer build";
#endif
}

}  // namespace
}  // namespace fob
