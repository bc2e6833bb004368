#include "src/runtime/memlog.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/runtime/memory.h"

namespace fob {
namespace {

MemErrorRecord MakeRecord(bool is_write, const std::string& unit_name) {
  MemErrorRecord record;
  record.is_write = is_write;
  record.addr = 0x1000;
  record.size = 1;
  record.unit_name = unit_name;
  record.status = PointerStatus::kOobAbove;
  record.function = "handler";
  record.access_index = 42;
  return record;
}

TEST(MemLogTest, CountsReadsAndWritesSeparately) {
  MemLog log;
  log.Record(MakeRecord(true, "a"));
  log.Record(MakeRecord(true, "a"));
  log.Record(MakeRecord(false, "b"));
  EXPECT_EQ(log.total_errors(), 3u);
  EXPECT_EQ(log.write_errors(), 2u);
  EXPECT_EQ(log.read_errors(), 1u);
}

TEST(MemLogTest, PerUnitHistogram) {
  MemLog log;
  log.Record(MakeRecord(true, "prescan::buf"));
  log.Record(MakeRecord(true, "prescan::buf"));
  log.Record(MakeRecord(false, "utf7_buf"));
  EXPECT_EQ(log.errors_by_unit().at("prescan::buf"), 2u);
  EXPECT_EQ(log.errors_by_unit().at("utf7_buf"), 1u);
}

TEST(MemLogTest, RingBufferDropsOldest) {
  MemLog log(4);
  for (int i = 0; i < 10; ++i) {
    log.Record(MakeRecord(true, "u" + std::to_string(i)));
  }
  EXPECT_EQ(log.total_errors(), 10u);  // counters unbounded
  EXPECT_EQ(log.recent().size(), 4u);  // records capped
  EXPECT_EQ(log.recent().front().unit_name, "u6");
  EXPECT_EQ(log.recent().back().unit_name, "u9");
}

TEST(MemLogTest, OverflowCounterAccountsForEveryEvictedRecord) {
  MemLog log(4);
  for (int i = 0; i < 3; ++i) {
    log.Record(MakeRecord(true, "early"));
  }
  EXPECT_EQ(log.dropped(), 0u);  // under the cap: nothing evicted
  for (int i = 0; i < 6000; ++i) {
    log.Record(MakeRecord(true, "attack_flood"));
  }
  // A multi-attack flood stores only `capacity` records; everything else is
  // counted, not kept — stored + dropped always equals total.
  EXPECT_EQ(log.capacity(), 4u);
  EXPECT_EQ(log.recent().size(), 4u);
  EXPECT_EQ(log.dropped(), 5999u);
  EXPECT_EQ(log.recent().size() + log.dropped(), log.total_errors());
  // The aggregates stay exact despite the bounded ring.
  EXPECT_EQ(log.errors_by_unit().at("attack_flood"), 6000u);
  EXPECT_EQ(log.errors_by_unit().at("early"), 3u);
  log.Clear();
  EXPECT_EQ(log.dropped(), 0u);
}

TEST(MemLogTest, LogCapacityIsConfigurablePerShard) {
  Memory::Config config;
  config.log_capacity = 2;
  Memory memory(config);
  Ptr p = memory.Malloc(4, "buf");
  for (int i = 0; i < 5; ++i) {
    (void)memory.ReadU8(p + 10);
  }
  EXPECT_EQ(memory.log().total_errors(), 5u);
  EXPECT_EQ(memory.log().recent().size(), 2u);
  EXPECT_EQ(memory.log().dropped(), 3u);
  // sites() aggregation is exact: one site, all five errors.
  ASSERT_EQ(memory.log().sites().size(), 1u);
  EXPECT_EQ(memory.log().sites().begin()->second.count, 5u);
}

TEST(MemLogTest, MergeSumsAggregatesAndKeepsSiteMetadata) {
  MemLog a;
  MemLog b;
  MemErrorRecord shared = MakeRecord(true, "hot_buf");
  shared.site = MakeSiteId("hot_buf", "handler", AccessKind::kWrite);
  a.Record(shared);
  a.Record(shared);
  MemErrorRecord reads = MakeRecord(false, "cold_buf");
  reads.site = MakeSiteId("cold_buf", "reader", AccessKind::kRead);
  b.Record(shared);
  b.Record(reads);

  MemLog merged;
  merged.Merge(a);
  merged.Merge(b);
  EXPECT_EQ(merged.total_errors(), 4u);
  EXPECT_EQ(merged.write_errors(), 3u);
  EXPECT_EQ(merged.read_errors(), 1u);
  EXPECT_EQ(merged.errors_by_unit().at("hot_buf"), 3u);
  EXPECT_EQ(merged.errors_by_unit().at("cold_buf"), 1u);
  ASSERT_EQ(merged.sites().size(), 2u);
  EXPECT_EQ(merged.sites().at(shared.site).count, 3u);
  EXPECT_EQ(merged.sites().at(shared.site).unit_name, "hot_buf");
  EXPECT_EQ(merged.sites().at(reads.site).count, 1u);
  // The ring holds both logs' records, first-merged first (the caller's
  // shard-id order is the ordering rule).
  EXPECT_EQ(merged.recent().size(), 4u);
  EXPECT_EQ(merged.recent().front().unit_name, "hot_buf");
  EXPECT_EQ(merged.recent().back().unit_name, "cold_buf");
}

TEST(MemLogTest, MergeRespectsCapacityAndCountsEvictions) {
  MemLog big;  // default capacity
  for (int i = 0; i < 3; ++i) {
    big.Record(MakeRecord(true, "shard0"));
  }
  MemLog merged(2);
  merged.Merge(big);
  EXPECT_EQ(merged.total_errors(), 3u);
  EXPECT_EQ(merged.recent().size(), 2u);
  EXPECT_EQ(merged.dropped(), 1u);
}

// Record with a site, so the per-site memo is exercised alongside the
// per-unit one.
MemErrorRecord MakeSiteRecord(const std::string& unit_name) {
  MemErrorRecord record = MakeRecord(true, unit_name);
  record.site = MakeSiteId(unit_name, record.function, AccessKind::kWrite);
  return record;
}

std::vector<std::string> RecentUnits(const MemLog& log) {
  std::vector<std::string> names;
  for (const MemErrorRecord& record : log.recent()) {
    names.push_back(record.unit_name);
  }
  return names;
}

TEST(MemLogRingTest, WrappedRingsMergeOldestFirst) {
  MemLog a(4);
  for (int i = 0; i < 11; ++i) {  // wraps twice and lands mid-ring
    a.Record(MakeSiteRecord("a" + std::to_string(i)));
  }
  MemLog b(4);
  for (int i = 0; i < 9; ++i) {
    b.Record(MakeSiteRecord("b" + std::to_string(i)));
  }
  EXPECT_EQ(RecentUnits(a), (std::vector<std::string>{"a7", "a8", "a9", "a10"}));
  EXPECT_EQ(a.recent().size() + a.dropped(), a.total_errors());
  EXPECT_EQ(b.recent().size() + b.dropped(), b.total_errors());

  b.Merge(a);
  // The merged ring keeps the newest four, still oldest first: b's own
  // records were all evicted by a's four.
  EXPECT_EQ(RecentUnits(b), (std::vector<std::string>{"a7", "a8", "a9", "a10"}));
  EXPECT_EQ(b.total_errors(), 20u);
  EXPECT_EQ(b.dropped(), 5u + 7u + 4u);
  EXPECT_EQ(b.sites().size(), 20u);
  EXPECT_EQ(b.errors_by_unit().size(), 20u);
  // Recording after the merge continues the ring where the merge left it.
  b.Record(MakeSiteRecord("after"));
  EXPECT_EQ(RecentUnits(b), (std::vector<std::string>{"a8", "a9", "a10", "after"}));
  EXPECT_EQ(b.sites().at(MakeSiteRecord("a10").site).count, 1u);
}

TEST(MemLogRingTest, CopiesNeverCountIntoTheOriginal) {
  MemLog original(8);
  original.Record(MakeSiteRecord("hot"));
  MemLog copy = original;
  copy.Record(MakeSiteRecord("hot"));
  copy.Record(MakeSiteRecord("hot"));
  original.Record(MakeSiteRecord("hot"));
  const SiteId hot = MakeSiteRecord("hot").site;
  EXPECT_EQ(original.errors_by_unit().at("hot"), 2u);
  EXPECT_EQ(original.sites().at(hot).count, 2u);
  EXPECT_EQ(copy.errors_by_unit().at("hot"), 3u);
  EXPECT_EQ(copy.sites().at(hot).count, 3u);

  // Assignment and moves drop the memo on both sides too.
  MemLog assigned(8);
  assigned.Record(MakeSiteRecord("hot"));
  assigned = copy;
  assigned.Record(MakeSiteRecord("hot"));
  EXPECT_EQ(copy.sites().at(hot).count, 3u);
  EXPECT_EQ(assigned.sites().at(hot).count, 4u);
  MemLog moved = std::move(assigned);
  moved.Record(MakeSiteRecord("hot"));
  EXPECT_EQ(moved.sites().at(hot).count, 5u);
  EXPECT_EQ(moved.errors_by_unit().at("hot"), 5u);
}

TEST(MemLogRingTest, ClearRestartsTheSiteAtTheSameSite) {
  MemLog log(4);
  for (int i = 0; i < 6; ++i) {
    log.Record(MakeSiteRecord("again"));
  }
  log.Clear();
  log.Record(MakeSiteRecord("again"));
  const SiteId site = MakeSiteRecord("again").site;
  ASSERT_EQ(log.sites().size(), 1u);
  EXPECT_EQ(log.sites().at(site).count, 1u);
  EXPECT_EQ(log.sites().at(site).unit_name, "again");
  EXPECT_EQ(log.errors_by_unit().at("again"), 1u);
  EXPECT_EQ(RecentUnits(log), (std::vector<std::string>{"again"}));
  EXPECT_EQ(log.dropped(), 0u);
}

TEST(MemLogRingTest, ZeroCapacityDropsEveryRecordButCountsExactly) {
  MemLog log(0);
  std::ostringstream echo;
  log.set_echo(&echo);
  log.Record(MakeSiteRecord("x"));
  log.Record(MakeSiteRecord("x"));
  log.Record(MakeRecord(false, "y"));
  EXPECT_TRUE(log.recent().empty());
  EXPECT_EQ(log.dropped(), 3u);
  EXPECT_EQ(log.total_errors(), 3u);
  EXPECT_EQ(log.write_errors(), 2u);
  EXPECT_EQ(log.read_errors(), 1u);
  EXPECT_EQ(log.errors_by_unit().at("x"), 2u);
  EXPECT_EQ(log.errors_by_unit().at("y"), 1u);
  EXPECT_EQ(log.sites().at(MakeSiteRecord("x").site).count, 2u);
  // Unstored records still echo.
  EXPECT_NE(echo.str().find("'y'"), std::string::npos);

  MemLog merged(0);
  merged.Merge(log);
  EXPECT_TRUE(merged.recent().empty());
  EXPECT_EQ(merged.dropped(), 3u);
  EXPECT_EQ(merged.total_errors(), 3u);
}

TEST(MemLogTest, SchedulerStatsSumCountersAndMaxPeakDepth) {
  MemLog a;
  a.AddSchedulerStats(/*shed=*/3, /*stolen_batches=*/2, /*peak_lane_depth=*/7);
  MemLog b;
  b.AddSchedulerStats(/*shed=*/1, /*stolen_batches=*/0, /*peak_lane_depth=*/4);

  MemLog merged;
  merged.Merge(a);
  merged.Merge(b);
  EXPECT_EQ(merged.shed_requests(), 4u);
  EXPECT_EQ(merged.stolen_batches(), 2u);
  // Peak depth is a high-water mark, not a sum: merging takes the max.
  EXPECT_EQ(merged.peak_lane_depth(), 7u);
  std::string summary = merged.Summary();
  EXPECT_NE(summary.find("4 requests shed"), std::string::npos);
  EXPECT_NE(summary.find("2 batches stolen"), std::string::npos);
  EXPECT_NE(summary.find("peak lane depth 7"), std::string::npos);

  merged.Clear();
  EXPECT_EQ(merged.shed_requests(), 0u);
  EXPECT_EQ(merged.stolen_batches(), 0u);
  EXPECT_EQ(merged.peak_lane_depth(), 0u);
  // A quiet scheduler stays out of the digest.
  EXPECT_EQ(merged.Summary().find("scheduler"), std::string::npos);
}

TEST(MemLogTest, EchoStreamsRecordsAsTheyHappen) {
  MemLog log;
  std::ostringstream echo;
  log.set_echo(&echo);
  log.Record(MakeRecord(true, "victim"));
  EXPECT_NE(echo.str().find("invalid write"), std::string::npos);
  EXPECT_NE(echo.str().find("victim"), std::string::npos);
  log.set_echo(nullptr);
  log.Record(MakeRecord(true, "quiet"));
  EXPECT_EQ(echo.str().find("quiet"), std::string::npos);
}

TEST(MemLogTest, RecordToStringMentionsEverything) {
  std::string text = MakeRecord(false, "buf").ToString();
  EXPECT_NE(text.find("invalid read"), std::string::npos);
  EXPECT_NE(text.find("0x1000"), std::string::npos);
  EXPECT_NE(text.find("out-of-bounds (above)"), std::string::npos);
  EXPECT_NE(text.find("handler"), std::string::npos);
  EXPECT_NE(text.find("#42"), std::string::npos);
}

TEST(MemLogTest, ClearResetsEverything) {
  MemLog log;
  log.Record(MakeRecord(true, "x"));
  log.Clear();
  EXPECT_EQ(log.total_errors(), 0u);
  EXPECT_TRUE(log.recent().empty());
  EXPECT_TRUE(log.errors_by_unit().empty());
}

TEST(MemLogIntegrationTest, LogIdentifiesTheGuiltyBufferAndFunction) {
  // §3: "a log containing information about the program's attempts to
  // commit memory errors" — the record names the data unit and the
  // function, which is what an administrator reads.
  Memory memory(AccessPolicy::kFailureOblivious);
  {
    Memory::Frame frame(memory, "parse_request");
    Ptr buf = frame.Local(8, "reqbuf");
    memory.WriteU8(buf + 9, 'X');
  }
  ASSERT_EQ(memory.log().recent().size(), 1u);
  MemErrorRecord record = memory.log().recent().front();
  EXPECT_EQ(record.unit_name, "parse_request::reqbuf");
  EXPECT_EQ(record.function, "parse_request");
  EXPECT_TRUE(record.is_write);
  EXPECT_EQ(record.status, PointerStatus::kOobAbove);
}

TEST(OobStatsTest, RegistryCountsByStatus) {
  Memory memory(AccessPolicy::kFailureOblivious);
  Ptr p = memory.Malloc(8, "b");
  (void)memory.ReadU8(p + 100);   // above
  (void)memory.ReadU8(p - 100);   // below (may hit another unit's range; still OOB of referent)
  memory.Free(p);
  (void)memory.ReadU8(p);         // dangling
  EXPECT_EQ(memory.oob().total(), 3u);
  EXPECT_GE(memory.oob().count(PointerStatus::kOobAbove), 1u);
  EXPECT_GE(memory.oob().count(PointerStatus::kDangling), 1u);
}

}  // namespace
}  // namespace fob
