#include "src/softmem/stack.h"

#include <gtest/gtest.h>

#include <string>

#include "src/softmem/address_space.h"
#include "src/softmem/fault.h"
#include "src/softmem/object_table.h"

namespace fob {
namespace {

constexpr Addr kLow = 0x7fff0000;
constexpr size_t kSize = 64 << 10;

class StackTest : public ::testing::Test {
 protected:
  StackTest() : stack_(space_, table_, kLow, kSize) {}

  AddressSpace space_{kLow, kSize + Stack::kTopPad};
  ObjectTable table_;
  Stack stack_;
};

TEST_F(StackTest, PushPopBalancedFrames) {
  EXPECT_EQ(stack_.depth(), 0u);
  stack_.PushFrame("main");
  stack_.PushFrame("handler");
  EXPECT_EQ(stack_.depth(), 2u);
  EXPECT_EQ(stack_.current_function(), "handler");
  stack_.PopFrame();
  EXPECT_EQ(stack_.current_function(), "main");
  stack_.PopFrame();
  EXPECT_EQ(stack_.depth(), 0u);
}

TEST_F(StackTest, LocalsRegisteredWithQualifiedNames) {
  stack_.PushFrame("prescan");
  Addr buf = stack_.AllocLocal(64, "addr_buf");
  const DataUnit* unit = table_.LookupByAddress(buf);
  ASSERT_NE(unit, nullptr);
  EXPECT_EQ(unit->name, "prescan::addr_buf");
  EXPECT_EQ(unit->kind, UnitKind::kStack);
  stack_.PopFrame();
}

TEST_F(StackTest, LocalsRetiredOnPop) {
  stack_.PushFrame("f");
  Addr buf = stack_.AllocLocal(32, "buf");
  stack_.PopFrame();
  EXPECT_EQ(table_.LookupByAddress(buf), nullptr);
}

TEST_F(StackTest, StackGrowsDownward) {
  stack_.PushFrame("f");
  Addr first = stack_.AllocLocal(16, "first");
  Addr second = stack_.AllocLocal(16, "second");
  EXPECT_LT(second, first);
  stack_.PopFrame();
}

TEST_F(StackTest, CanaryIntactOnNormalReturn) {
  stack_.PushFrame("f");
  Addr buf = stack_.AllocLocal(16, "buf");
  std::string data(16, 'x');  // fills the buffer exactly
  ASSERT_TRUE(space_.Write(buf, data.data(), data.size()));
  EXPECT_NO_THROW(stack_.PopFrame());
}

TEST_F(StackTest, OverrunThroughCanaryFaultsOnReturn) {
  stack_.PushFrame("vulnerable");
  Addr buf = stack_.AllocLocal(16, "buf");
  // Overrun: 16-byte buffer, 32 bytes written. The canary sits above the
  // locals, so this clobbers it.
  std::string attack(32, 'A');
  ASSERT_TRUE(space_.Write(buf, attack.data(), attack.size()));
  try {
    stack_.PopFrame();
    FAIL() << "expected stack smash fault";
  } catch (const Fault& f) {
    EXPECT_EQ(f.kind(), FaultKind::kStackSmash);
    EXPECT_TRUE(f.possible_code_injection());
  }
  EXPECT_EQ(stack_.depth(), 0u);  // the frame is gone either way
}

TEST_F(StackTest, UncheckedPopSkipsCanary) {
  stack_.PushFrame("crashing");
  Addr buf = stack_.AllocLocal(8, "buf");
  std::string attack(64, 'B');
  ASSERT_TRUE(space_.Write(buf, attack.data(), attack.size()));
  EXPECT_NO_THROW(stack_.PopFrameUnchecked());
}

TEST_F(StackTest, LocalsAreNotCleared) {
  stack_.PushFrame("first");
  Addr a = stack_.AllocLocal(64, "buf");
  std::string junk(64, 'J');
  ASSERT_TRUE(space_.Write(a, junk.data(), junk.size()));
  stack_.PopFrame();

  stack_.PushFrame("second");
  Addr b = stack_.AllocLocal(64, "buf");
  EXPECT_EQ(b, a);  // same slot reused
  std::string leftover(64, '\0');
  ASSERT_TRUE(space_.Read(b, leftover.data(), leftover.size()));
  EXPECT_EQ(leftover, junk);  // uninitialized local sees the old bytes
  stack_.PopFrame();
}

TEST_F(StackTest, DistinctCanariesPerFrame) {
  stack_.PushFrame("a");
  stack_.PushFrame("b");
  // Corrupting b's canary must not implicate a.
  stack_.PopFrame();
  EXPECT_NO_THROW(stack_.PopFrame());
}

TEST_F(StackTest, StackOverflowFaults) {
  stack_.PushFrame("hog");
  try {
    stack_.AllocLocal(kSize * 2, "huge");
    FAIL() << "expected stack overflow";
  } catch (const Fault& f) {
    EXPECT_EQ(f.kind(), FaultKind::kStackOverflow);
  }
}

TEST_F(StackTest, DeepNesting) {
  for (int i = 0; i < 100; ++i) {
    stack_.PushFrame("level" + std::to_string(i));
    stack_.AllocLocal(16, "local");
  }
  EXPECT_EQ(stack_.depth(), 100u);
  for (int i = 0; i < 100; ++i) {
    stack_.PopFrame();
  }
  EXPECT_EQ(stack_.depth(), 0u);
  EXPECT_EQ(table_.live_count(), 0u);
}

}  // namespace
}  // namespace fob
