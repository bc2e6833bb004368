// Property/stress tests: the heap allocator against a shadow model.
//
// A deterministic pseudo-random workload of malloc/free/realloc is mirrored
// in a host-side model; invariants checked throughout:
//   * allocator never hands out overlapping blocks,
//   * block contents survive until freed (and across realloc),
//   * freed space is reusable (no leak of address space),
//   * metadata stays intact as long as nobody writes out of bounds.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/softmem/address_space.h"
#include "src/softmem/heap.h"
#include "src/softmem/object_table.h"

namespace fob {
namespace {

class Xorshift {
 public:
  explicit Xorshift(uint64_t seed) : state_(seed | 1) {}
  uint64_t Next() {
    state_ ^= state_ >> 12;
    state_ ^= state_ << 25;
    state_ ^= state_ >> 27;
    return state_ * 2685821657736338717ull;
  }
  uint64_t Below(uint64_t n) { return Next() % n; }

 private:
  uint64_t state_;
};

std::string PatternFor(Addr payload, size_t size) {
  std::string pattern(size, '\0');
  for (size_t i = 0; i < size; ++i) {
    pattern[i] = static_cast<char>((payload + i * 31) & 0xff);
  }
  return pattern;
}

class HeapStressTest : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, HeapStressTest, ::testing::Values(1, 7, 42, 1234, 99999));

TEST_P(HeapStressTest, RandomWorkloadKeepsInvariants) {
  AddressSpace space(0x10000000, 4 << 20);
  ObjectTable table;
  Heap heap(space, table, 0x10000000, 4 << 20);
  Xorshift rng(GetParam());

  std::map<Addr, std::string> live;  // payload -> expected contents
  for (int step = 0; step < 3000; ++step) {
    uint64_t action = rng.Below(100);
    if (action < 55 || live.empty()) {
      // malloc
      size_t size = 1 + rng.Below(700);
      Addr p = heap.Malloc(size, "stress");
      if (p == 0) {
        continue;  // OOM under churn is legal
      }
      // No overlap with any live block.
      for (const auto& [base, contents] : live) {
        ASSERT_TRUE(p + size <= base || base + contents.size() <= p)
            << "overlap at step " << step;
      }
      std::string pattern = PatternFor(p, size);
      ASSERT_TRUE(space.Write(p, pattern.data(), pattern.size()));
      live.emplace(p, std::move(pattern));
    } else if (action < 80) {
      // free a random live block
      auto it = live.begin();
      std::advance(it, static_cast<long>(rng.Below(live.size())));
      ASSERT_TRUE(heap.BlockIntact(it->first)) << "metadata died at step " << step;
      heap.Free(it->first);
      live.erase(it);
    } else {
      // realloc a random live block
      auto it = live.begin();
      std::advance(it, static_cast<long>(rng.Below(live.size())));
      size_t new_size = 1 + rng.Below(900);
      Addr fresh = heap.Realloc(it->first, new_size);
      if (fresh == 0) {
        continue;
      }
      std::string expected = it->second;
      expected.resize(new_size, '\0');  // grown area is zeroed
      if (new_size < it->second.size()) {
        expected = it->second.substr(0, new_size);
      }
      // Contents preserved up to min(old,new).
      std::string actual(new_size, '\0');
      ASSERT_TRUE(space.Read(fresh, actual.data(), new_size));
      size_t check = std::min(new_size, it->second.size());
      EXPECT_EQ(actual.substr(0, check), it->second.substr(0, check))
          << "realloc lost data at step " << step;
      live.erase(it);
      // Rewrite with a fresh pattern for continued checking.
      std::string pattern = PatternFor(fresh, new_size);
      ASSERT_TRUE(space.Write(fresh, pattern.data(), pattern.size()));
      live.emplace(fresh, std::move(pattern));
    }
    // Periodically verify all live contents.
    if (step % 500 == 0) {
      for (const auto& [base, contents] : live) {
        std::string actual(contents.size(), '\0');
        ASSERT_TRUE(space.Read(base, actual.data(), actual.size()));
        ASSERT_EQ(actual, contents) << "contents corrupted at step " << step;
      }
    }
  }
  // Drain and confirm full reuse.
  for (const auto& [base, contents] : live) {
    (void)contents;
    heap.Free(base);
  }
  EXPECT_EQ(heap.live_blocks(), 0u);
  EXPECT_NE(heap.Malloc(2 << 20, "big after drain"), 0u);
}

TEST_P(HeapStressTest, ObjectTableMirrorsLiveBlocks) {
  AddressSpace space(0x10000000, 1 << 20);
  ObjectTable table;
  Heap heap(space, table, 0x10000000, 1 << 20);
  Xorshift rng(GetParam() * 31);
  std::vector<Addr> live;
  for (int step = 0; step < 1000; ++step) {
    if (rng.Below(2) == 0 || live.empty()) {
      Addr p = heap.Malloc(1 + rng.Below(256), "t");
      if (p != 0) {
        live.push_back(p);
      }
    } else {
      size_t index = rng.Below(live.size());
      heap.Free(live[index]);
      live.erase(live.begin() + static_cast<long>(index));
    }
    ASSERT_EQ(table.live_count(), live.size());
    for (Addr p : live) {
      const DataUnit* unit = table.LookupByAddress(p);
      ASSERT_NE(unit, nullptr);
      ASSERT_EQ(unit->base, p);
    }
  }
}

}  // namespace
}  // namespace fob
