// Tests of the serving benchmark's own machinery: seeded generation, the
// percentile rule, round selection, self time, the response checker and
// crash-safe spans.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "servebench/load.h"
#include "servebench/stats.h"
#include "servebench/trace.h"

namespace servebench {
namespace {

std::vector<std::string> Lines(const Workload& workload, uint64_t seed, size_t count) {
  const auto requests = MakeRequests(workload);
  KindStream stream(seed, workload.attack_period);
  std::vector<std::string> lines;
  for (size_t i = 0; i < count; ++i) {
    lines.push_back(requests[static_cast<size_t>(stream.Next())].Serialize());
  }
  return lines;
}

TEST(Generation, SameSeedGivesByteIdenticalLines) {
  for (const char* name : {"apache-fo", "apache-bc", "mc-fo"}) {
    const Workload* workload = FindWorkload(name);
    ASSERT_NE(workload, nullptr) << name;
    EXPECT_EQ(Lines(*workload, 7, 200), Lines(*workload, 7, 200)) << name;
    EXPECT_NE(Lines(*workload, 7, 200), Lines(*workload, 8, 200)) << name;
  }
}

TEST(Generation, AttackShareIsExactPerBlock) {
  KindStream stream(3, 4);
  for (int block = 0; block < 100; ++block) {
    int attacks = 0;
    for (int i = 0; i < 4; ++i) {
      attacks += stream.Next() == Kind::kAttack ? 1 : 0;
    }
    EXPECT_EQ(attacks, 1);
  }
  EXPECT_EQ(FindWorkload("no-such-workload"), nullptr);
}

std::vector<double> OneTo(int n) {
  std::vector<double> values;
  for (int i = n; i >= 1; --i) {
    values.push_back(i);
  }
  return values;
}

TEST(Percentile, NearestRankWithTenSamplesBeyond) {
  Percentile p99 = TailPercentile(OneTo(1000), 0.99);
  EXPECT_EQ(p99.value, 990);
  EXPECT_DOUBLE_EQ(p99.q, 0.99);
  EXPECT_EQ(p99.n, 1000u);
  EXPECT_TRUE(p99.supported);
  EXPECT_EQ(TailPercentile(OneTo(1000), 0.5).value, 500);
  EXPECT_EQ(TailPercentile(OneTo(1001), 0.5).value, 501);
}

TEST(Percentile, LoweredWhenTooFewSamplesBeyond) {
  Percentile p99 = TailPercentile(OneTo(500), 0.99);
  EXPECT_EQ(p99.value, 490);  // ten samples above it
  EXPECT_DOUBLE_EQ(p99.q, 0.98);
  Percentile tiny = TailPercentile(OneTo(5), 0.99);
  EXPECT_FALSE(tiny.supported);
  EXPECT_EQ(TailPercentile({}, 0.5).n, 0u);
}

TEST(QuietestRounds, KeepsLeastStolenInRoundOrder) {
  EXPECT_EQ(QuietestRounds({0.10, 0.01, 0.30, 0.02, 0.05}, 3), (std::vector<size_t>{1, 3, 4}));
  EXPECT_EQ(QuietestRounds({0.0, 0.0, 0.0, 0.0}, 2), (std::vector<size_t>{0, 1}));
  EXPECT_EQ(QuietestRounds({0.2, 0.1}, 5), (std::vector<size_t>{0, 1}));
  EXPECT_TRUE(QuietestRounds({}, 3).empty());
}

TEST(SelfTime, OverlappingChildrenCountOnce) {
  // Covered: [0,5] + [10,40] + [50,60] + [90,100] = 55 of 100.
  EXPECT_EQ(SelfTime({0, 100}, {{10, 30}, {20, 40}, {50, 60}, {90, 120}, {-10, 5}, {25, 35}}),
            45);
  EXPECT_EQ(SelfTime({0, 100}, {}), 100);
  EXPECT_EQ(SelfTime({0, 100}, {{-5, 200}, {10, 20}}), 0);
  EXPECT_EQ(SelfTime({0, 100}, {{100, 150}, {-50, 0}}), 100);
}

std::array<Reference, kKinds> FakeReferences() {
  std::array<Reference, kKinds> references;
  references[static_cast<size_t>(Kind::kLegit)] = Reference{"RSP\tlegit", true};
  references[static_cast<size_t>(Kind::kAttack)] = Reference{"RSP\tattack", false};
  return references;
}

TEST(Checker, InOrderMatchingLinesPass) {
  const auto references = FakeReferences();
  ClientChecker checker(references);
  checker.Sent(Kind::kLegit, 11);
  checker.Sent(Kind::kAttack, 12);
  EXPECT_TRUE(checker.Receive("RSP\tlegit").ok);
  const ClientChecker::Result attack = checker.Receive("RSP\tattack");
  EXPECT_TRUE(attack.ok);
  EXPECT_EQ(attack.stamp, 12);
  checker.CloseMissing();
  EXPECT_EQ(checker.tally().check_failures(), 0u);
  EXPECT_EQ(checker.tally().served, 1u);
  EXPECT_EQ(checker.tally().legit_served, 1u);
}

TEST(Checker, CatchesCorruptedLine) {
  const auto references = FakeReferences();
  ClientChecker checker(references);
  checker.Sent(Kind::kLegit);
  EXPECT_FALSE(checker.Receive("RSP\tlegiT").ok);
  EXPECT_EQ(checker.tally().mismatched, 1u);
}

TEST(Checker, CatchesReorderedLines) {
  const auto references = FakeReferences();
  ClientChecker checker(references);
  checker.Sent(Kind::kLegit);
  checker.Sent(Kind::kAttack);
  EXPECT_FALSE(checker.Receive("RSP\tattack").ok);
  EXPECT_FALSE(checker.Receive("RSP\tlegit").ok);
  EXPECT_EQ(checker.tally().mismatched, 2u);
}

TEST(Checker, CatchesMissingAndExtraLines) {
  const auto references = FakeReferences();
  ClientChecker checker(references);
  checker.Sent(Kind::kLegit);
  checker.Sent(Kind::kLegit);
  EXPECT_TRUE(checker.Receive("RSP\tlegit").ok);
  checker.CloseMissing();
  EXPECT_EQ(checker.tally().missing, 1u);
  EXPECT_FALSE(checker.Receive("RSP\tlegit").ok);
  EXPECT_EQ(checker.tally().extra, 1u);
  EXPECT_EQ(checker.tally().check_failures(), 2u);
}

// Under Bounds Check an attack kills its worker: the Handle span must still
// be recorded (closed by its scope guard while the fault unwinds), the
// replacement's construction must be attributed to the same lane, and the
// Frontend's answer must equal the reference crash line.
TEST(Trace, CrashedHandleStillRecordsItsSpan) {
  const Workload& workload = *FindWorkload("apache-bc");
  const auto requests = MakeRequests(workload);
  const auto references = ComputeReferences(workload, requests);
  EXPECT_TRUE(references[static_cast<size_t>(Kind::kLegit)].served);
  EXPECT_FALSE(references[static_cast<size_t>(Kind::kAttack)].served);

  fob::Frontend frontend(MakeTimedFactory(workload), fob::Frontend::Options{.workers = 1});
  fob::LineChannel& channel = frontend.Connect(5);
  trace::Clear();
  trace::SetPhase(Phase::kClosed);
  trace::SetPump(1);
  trace::Enable(true);
  channel.ClientSend(requests[static_cast<size_t>(Kind::kAttack)].Serialize());
  channel.ClientSend(requests[static_cast<size_t>(Kind::kLegit)].Serialize());
  frontend.Pump();
  trace::Enable(false);
  ClientChecker checker(references);
  checker.Sent(Kind::kAttack);
  checker.Sent(Kind::kLegit);
  EXPECT_TRUE(checker.Receive(*channel.ClientReceive()).ok);
  EXPECT_TRUE(checker.Receive(*channel.ClientReceive()).ok);
  EXPECT_EQ(frontend.restarts(), 1u);

  int crashed = 0, handled = 0, constructed = 0;
  for (const Span& span : trace::Collect()) {
    EXPECT_EQ(span.pump, 1u);
    EXPECT_LE(span.start_ns, span.end_ns);
    if (span.kind == SpanKind::kHandle) {
      ++handled;
      EXPECT_EQ(span.client, 5u);
      EXPECT_EQ(span.lane, 0);
      if (span.crashed) {
        ++crashed;
        EXPECT_EQ(span.tag, Kind::kAttack);
      }
    } else if (span.kind == SpanKind::kConstruct) {
      ++constructed;
      EXPECT_EQ(span.lane, 0);
    }
  }
  EXPECT_EQ(handled, 2);
  EXPECT_EQ(crashed, 1);
  EXPECT_EQ(constructed, 1);
}

}  // namespace
}  // namespace servebench
