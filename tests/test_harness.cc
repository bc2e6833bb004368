#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <sstream>
#include <string>

#include "src/harness/experiment.h"
#include "src/harness/stats.h"
#include "src/harness/table.h"
#include "src/harness/workloads.h"
#include "src/mail/mbox.h"
#include "src/net/http.h"

namespace fob {
namespace {

// ---- stats -----------------------------------------------------------------

TEST(StatsTest, MeanAndRelativeStddev) {
  TimingStats stats = ComputeStats({1.0, 2.0, 3.0});
  EXPECT_DOUBLE_EQ(stats.mean_ms, 2.0);
  EXPECT_NEAR(stats.stddev_pct, 50.0, 0.01);  // stddev 1.0 over mean 2.0
  EXPECT_EQ(stats.samples, 3u);
}

TEST(StatsTest, SingleSampleHasZeroSpread) {
  TimingStats stats = ComputeStats({5.0});
  EXPECT_DOUBLE_EQ(stats.mean_ms, 5.0);
  EXPECT_DOUBLE_EQ(stats.stddev_pct, 0.0);
}

TEST(StatsTest, EmptyIsZero) {
  TimingStats stats = ComputeStats({});
  EXPECT_EQ(stats.samples, 0u);
  EXPECT_DOUBLE_EQ(stats.mean_ms, 0.0);
}

TEST(StatsTest, MeasureRunsTheRequestedRepetitions) {
  int calls = 0;
  TimingStats stats = MeasureMs([&] { ++calls; }, 10);
  EXPECT_EQ(calls, 11);  // warmup + 10
  EXPECT_EQ(stats.samples, 10u);
}

TEST(StatsTest, MeasurePairInterleavesAndBatches) {
  int a = 0;
  int b = 0;
  PairStats pair = MeasurePairMs([&] { ++a; }, [&] { ++b; }, /*batch=*/4, /*reps=*/5);
  EXPECT_EQ(a, 1 + 4 * 5);  // warmup + batch*reps
  EXPECT_EQ(b, 1 + 4 * 5);
  EXPECT_EQ(pair.a.samples, 5u);
  EXPECT_EQ(pair.b.samples, 5u);
}

TEST(StatsTest, CleanupRunsBetweenSamples) {
  int work = 0;
  int undo = 0;
  MeasureMsWithCleanup([&] { ++work; }, [&] { ++undo; }, 5);
  EXPECT_EQ(work, 6);
  EXPECT_EQ(undo, 6);
}

TEST(StatsTest, StopwatchAdvances) {
  Stopwatch watch;
  // The sum of 0..99999 overflows int; 64 bits keeps the busy-loop defined.
  volatile int64_t sink = 0;
  for (int i = 0; i < 100000; ++i) {
    sink = sink + i;
  }
  EXPECT_GT(watch.ElapsedMs(), 0.0);
}

// ---- table -------------------------------------------------------------------

TEST(TableTest, RendersAlignedColumns) {
  Table table({"Name", "Value"});
  table.AddRow({"x", "1"});
  table.AddRow({"long name", "23"});
  std::string out = table.ToString();
  EXPECT_NE(out.find("| Name      | Value |"), std::string::npos);
  EXPECT_NE(out.find("| long name | 23    |"), std::string::npos);
  // Frame lines above/below header and at the bottom.
  EXPECT_EQ(std::count(out.begin(), out.end(), '+') % 3, 0);
}

TEST(TableTest, ShortRowsArePadded) {
  Table table({"A", "B", "C"});
  table.AddRow({"only one"});
  std::string out = table.ToString();
  EXPECT_NE(out.find("only one"), std::string::npos);
}

TEST(TableTest, CellFormatsLikeThePaper) {
  EXPECT_EQ(Table::Cell(0.287, 7.1), "0.287 +/- 7.1%");
  EXPECT_EQ(Table::Num(6.94), "6.94");
  EXPECT_EQ(Table::Num(1.25, 3), "1.25");
}

// ---- workloads ----------------------------------------------------------------

TEST(WorkloadTest, PineAttackMboxContainsTheTrigger) {
  auto messages = ParseMbox(MakePineMbox(4, true));
  ASSERT_EQ(messages.size(), 5u);
  bool found = false;
  for (const auto& message : messages) {
    if (message.From() == MakePineAttackFrom()) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(WorkloadTest, PineMboxBodySizing) {
  auto messages = ParseMbox(MakePineMbox(2, false, 4096));
  ASSERT_EQ(messages.size(), 2u);
  EXPECT_GE(messages[0].body.size(), 4096u);
}

TEST(WorkloadTest, ApacheAttackUrlMatchesTheVulnerableRule) {
  std::string url = MakeApacheAttackUrl();
  EXPECT_EQ(url.substr(0, 10), "/captures/");
  // 12 '-'-separated segments
  EXPECT_EQ(std::count(url.begin(), url.end(), '-'), 11);
}

uint64_t Fnv1a64(const std::string& bytes) {
  uint64_t hash = 14695981039346656037ull;
  for (unsigned char c : bytes) {
    hash = (hash ^ c) * 1099511628211ull;
  }
  return hash;
}

TEST(WorkloadTest, ApacheDocrootHasTheFigure3Pages) {
  Vfs docroot = MakeApacheDocroot();
  ASSERT_TRUE(docroot.FileSize("/index.html").has_value());
  EXPECT_NEAR(static_cast<double>(*docroot.FileSize("/index.html")), 5 * 1024, 64);
  EXPECT_EQ(docroot.FileSize("/files/big.bin"), 830 * 1024u);

  // The served bytes are pinned, not just the sizes: responses are compared
  // byte for byte against a standalone server, so any change to the
  // generator changes every Apache response.
  std::optional<std::string> index = docroot.ReadFile("/index.html");
  ASSERT_TRUE(index.has_value());
  EXPECT_EQ(index->size(), 5126u);
  EXPECT_EQ(Fnv1a64(*index), 0x94cc127ac72f797full);

  // /files/big.bin is the 61-byte period 'A' + i % 61 at every size,
  // including the ones that end inside the first, second and last period.
  for (size_t large_bytes : {size_t{0}, size_t{1}, size_t{60}, size_t{61}, size_t{62},
                             size_t{122}, size_t{830 * 1024}}) {
    std::optional<std::string> big =
        MakeApacheDocroot(5 * 1024, large_bytes).ReadFile("/files/big.bin");
    ASSERT_TRUE(big.has_value()) << large_bytes;
    ASSERT_EQ(big->size(), large_bytes);
    size_t first_bad = large_bytes;
    for (size_t i = 0; i < large_bytes; ++i) {
      if ((*big)[i] != static_cast<char>('A' + i % 61)) {
        first_bad = i;
        break;
      }
    }
    EXPECT_EQ(first_bad, large_bytes) << "large_bytes " << large_bytes;
  }
}

TEST(WorkloadTest, SendmailSessionsHaveRequestedBodySize) {
  auto session = MakeSendmailSession("a@localhost", 4096);
  size_t body_bytes = 0;
  bool in_data = false;
  for (const std::string& line : session) {
    if (line == ".") {
      break;
    }
    if (in_data) {
      body_bytes += line.size();
    }
    if (line == "DATA") {
      in_data = true;
    }
  }
  EXPECT_EQ(body_bytes, 4096u);
}

TEST(WorkloadTest, McTreeHasRequestedBytes) {
  Vfs fs;
  uint64_t made = MakeMcTree(fs, "/t", 1 << 20);
  EXPECT_EQ(made, 1u << 20);
  EXPECT_EQ(fs.TreeBytes("/t"), 1u << 20);
}

TEST(WorkloadTest, MuttAttackNameExpandsPastTwoX) {
  std::string name = MakeMuttAttackFolderName();
  // Verified indirectly by the apps; here just the structural property.
  size_t controls = 0;
  for (char c : name) {
    if (static_cast<unsigned char>(c) < 0x20) {
      ++controls;
    }
  }
  EXPECT_GT(controls, name.size() / 4);
}

// ---- traffic streams -------------------------------------------------------------

TEST(TrafficStreamTest, AttackStreamsCarryTheSection4Shape) {
  for (Server server : kAllServers) {
    TrafficStream stream = MakeAttackStream(server);
    EXPECT_EQ(stream.server, server);
    ASSERT_FALSE(stream.requests.empty()) << ServerName(server);
    // Every §4 stream opens with the attack and follows with legitimate
    // requests (the availability criterion needs both).
    EXPECT_EQ(stream.requests.front().tag, RequestTag::kAttack) << ServerName(server);
    EXPECT_GT(stream.CountTag(RequestTag::kLegit), 0u) << ServerName(server);
  }
}

TEST(TrafficStreamTest, MultiAttackStreamsHitMoreThanOneAttack) {
  for (Server server : kAllServers) {
    TrafficStream stream = MakeMultiAttackStream(server);
    EXPECT_GT(stream.CountTag(RequestTag::kAttack), 1u) << ServerName(server);
  }
}

TEST(TrafficStreamTest, SameSeedSameStreamByteForByte) {
  StreamOptions options;
  options.requests = 60;
  options.clients = 4;
  options.attack_period = 5;
  options.seed = 77;
  for (Server server : kAllServers) {
    TrafficStream a = MakeTrafficStream(server, options);
    TrafficStream b = MakeTrafficStream(server, options);
    ASSERT_EQ(a.requests.size(), b.requests.size());
    for (size_t i = 0; i < a.requests.size(); ++i) {
      EXPECT_EQ(a.requests[i].Serialize(), b.requests[i].Serialize())
          << ServerName(server) << " request " << i;
    }
  }
}

TEST(TrafficStreamTest, DifferentSeedsDiffer) {
  StreamOptions a_options{.requests = 40, .clients = 4, .seed = 1};
  StreamOptions b_options{.requests = 40, .clients = 4, .seed = 2};
  TrafficStream a = MakeTrafficStream(Server::kMutt, a_options);
  TrafficStream b = MakeTrafficStream(Server::kMutt, b_options);
  bool any_difference = false;
  for (size_t i = 0; i < a.requests.size(); ++i) {
    if (a.requests[i].Serialize() != b.requests[i].Serialize()) {
      any_difference = true;
    }
  }
  EXPECT_TRUE(any_difference);
}

TEST(TrafficStreamTest, AttackPeriodTagsTheRequestedMix) {
  StreamOptions options{.requests = 40, .attack_period = 4, .attacks_per_period = 3};
  TrafficStream stream = MakeTrafficStream(Server::kApache, options);
  EXPECT_EQ(stream.CountTag(RequestTag::kAttack), 30u);
  EXPECT_EQ(stream.CountTag(RequestTag::kLegit), 10u);
}

TEST(TrafficStreamTest, ClientIdsStayWithinTheRequestedCount) {
  StreamOptions options{.requests = 50, .clients = 3, .seed = 9};
  TrafficStream stream = MakeTrafficStream(Server::kPine, options);
  for (const ServerRequest& request : stream.requests) {
    EXPECT_LT(request.client_id, 3u);
  }
}

// ---- experiment classification ---------------------------------------------------

TEST(OutcomeTest, Classification) {
  RunResult ok{ExitStatus::kOk, "", false};
  EXPECT_EQ(ClassifyOutcome(ok, true), Outcome::kContinued);
  EXPECT_EQ(ClassifyOutcome(ok, false), Outcome::kWrongOutput);
  RunResult seg{ExitStatus::kSegfault, "", false};
  EXPECT_EQ(ClassifyOutcome(seg, true), Outcome::kCrashed);
  RunResult term{ExitStatus::kBoundsTerminated, "", false};
  EXPECT_EQ(ClassifyOutcome(term, true), Outcome::kTerminated);
  RunResult hang{ExitStatus::kBudgetExhausted, "", false};
  EXPECT_EQ(ClassifyOutcome(hang, true), Outcome::kHang);
}

TEST(OutcomeTest, NamesAreReadable) {
  EXPECT_STREQ(OutcomeName(Outcome::kContinued), "continued (acceptable)");
  EXPECT_STREQ(OutcomeName(Outcome::kCrashed), "crashed (segfault)");
  EXPECT_STREQ(ServerName(Server::kMc), "Midnight Commander");
}

}  // namespace
}  // namespace fob
