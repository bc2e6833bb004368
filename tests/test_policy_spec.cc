// The per-site policy resolution API (PolicySpec / SiteId / PolicyTable).
//
// Three layers of guarantees:
//
//   identity     SiteId is a stable, deterministic function of (unit name,
//                frame function, access kind), and the ids in the error log
//                are the ids the spec resolves against;
//   dispatch     a mixed spec applies exactly the site's policy to invalid
//                accesses at that site and the fallback everywhere else;
//   equivalence  a spec that resolves the same policy at every site — the
//                forced per-site dispatch path — is byte-for-byte identical
//                to the legacy single-policy Memory on both the scalar and
//                span access paths, for every policy. (Uniform specs take
//                the legacy fast path by construction, so this property
//                pins down the dispatch machinery itself.)
//
// Plus the semantics of the two sweep policies (kZeroManufacture,
// kThreshold).

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/runtime/memory.h"
#include "src/runtime/process.h"
#include "src/softmem/fault.h"

namespace fob {
namespace {

// ---- SiteId -----------------------------------------------------------------

TEST(SiteIdTest, DeterministicAndDiscriminating) {
  SiteId a = MakeSiteId("buf", "parse", AccessKind::kWrite);
  EXPECT_EQ(a, MakeSiteId("buf", "parse", AccessKind::kWrite));
  EXPECT_NE(a, MakeSiteId("buf", "parse", AccessKind::kRead));
  EXPECT_NE(a, MakeSiteId("buf", "render", AccessKind::kWrite));
  EXPECT_NE(a, MakeSiteId("other", "parse", AccessKind::kWrite));
  EXPECT_NE(a, kInvalidSite);
}

TEST(SiteIdTest, FieldBoundaryIsUnambiguous) {
  // ("ab", "c") and ("a", "bc") must not collide just because the
  // concatenated bytes match.
  EXPECT_NE(MakeSiteId("ab", "c", AccessKind::kRead),
            MakeSiteId("a", "bc", AccessKind::kRead));
}

TEST(SiteIdTest, LoggedRecordsCarryTheResolvableSite) {
  Memory memory(AccessPolicy::kFailureOblivious);
  Ptr p = memory.Malloc(8, "logged_unit");
  {
    Memory::Frame frame(memory, "attacker");
    memory.WriteU8(p + 64, 1);
    (void)memory.ReadU8(p + 64);
  }
  ASSERT_EQ(memory.log().recent().size(), 2u);
  EXPECT_EQ(memory.log().recent()[0].site,
            MakeSiteId("logged_unit", "attacker", AccessKind::kWrite));
  EXPECT_EQ(memory.log().recent()[1].site,
            MakeSiteId("logged_unit", "attacker", AccessKind::kRead));
  // The aggregated site index carries the same ids with counts.
  ASSERT_EQ(memory.log().sites().size(), 2u);
  EXPECT_EQ(memory.log().sites().count(memory.log().recent()[0].site), 1u);
}

TEST(SiteIdTest, SiteForAccessMatchesWhatAnErrorWouldLog) {
  Memory memory(AccessPolicy::kFailureOblivious);
  Ptr p = memory.Malloc(8, "probed");
  Memory::Frame frame(memory, "prober");
  SiteId predicted = memory.SiteForAccess(p + 100, AccessKind::kWrite);
  memory.WriteU8(p + 100, 7);
  ASSERT_EQ(memory.log().recent().size(), 1u);
  EXPECT_EQ(memory.log().recent().back().site, predicted);
}

// Under a uniform spec LogError derives each record's site itself, through
// the shard's one-entry site memo; these pin that the memo never hands out a
// stale id when any part of its key changes.

std::vector<SiteId> LoggedSites(const Memory& memory) {
  std::vector<SiteId> sites;
  for (const MemErrorRecord& record : memory.log().recent()) {
    sites.push_back(record.site);
  }
  return sites;
}

TEST(SiteMemoTest, SameUnitUnderTwoFunctionsIsTwoSites) {
  Memory memory(AccessPolicy::kFailureOblivious);
  Ptr buf = memory.Malloc(8, "shared_buffer_name");
  {
    Memory::Frame frame(memory, "first_caller_fn");
    memory.WriteU8(buf + 32, 1);
    memory.WriteU8(buf + 33, 1);
  }
  {
    Memory::Frame frame(memory, "second_caller_fn");
    memory.WriteU8(buf + 32, 1);
  }
  const SiteId first = MakeSiteId("shared_buffer_name", "first_caller_fn", AccessKind::kWrite);
  const SiteId second = MakeSiteId("shared_buffer_name", "second_caller_fn", AccessKind::kWrite);
  EXPECT_EQ(LoggedSites(memory), (std::vector<SiteId>{first, first, second}));
  EXPECT_EQ(memory.log().sites().at(first).count, 2u);
  EXPECT_EQ(memory.log().sites().at(second).count, 1u);
}

TEST(SiteMemoTest, ReadThenWriteAtOneSiteIsTwoSites) {
  Memory memory(AccessPolicy::kFailureOblivious);
  Ptr buf = memory.Malloc(8, "buf");
  Memory::Frame frame(memory, "scanner");
  (void)memory.ReadU8(buf + 40);
  memory.WriteU8(buf + 40, 1);
  (void)memory.ReadU8(buf + 40);
  const SiteId read = MakeSiteId("buf", "scanner", AccessKind::kRead);
  const SiteId write = MakeSiteId("buf", "scanner", AccessKind::kWrite);
  EXPECT_EQ(LoggedSites(memory), (std::vector<SiteId>{read, write, read}));
}

TEST(SiteMemoTest, AlternatingUnitsEachGetTheirOwnSite) {
  Memory memory(AccessPolicy::kFailureOblivious);
  Ptr a = memory.Malloc(8, "unit_a");
  Ptr b = memory.Malloc(8, "unit_b");
  Memory::Frame frame(memory, "mixer");
  memory.WriteU8(a + 64, 1);
  memory.WriteU8(b + 64, 1);
  memory.WriteU8(a + 64, 1);
  const SiteId site_a = MakeSiteId("unit_a", "mixer", AccessKind::kWrite);
  const SiteId site_b = MakeSiteId("unit_b", "mixer", AccessKind::kWrite);
  EXPECT_EQ(LoggedSites(memory), (std::vector<SiteId>{site_a, site_b, site_a}));
  EXPECT_EQ(memory.log().sites().at(site_a).count, 2u);
  EXPECT_EQ(memory.log().errors_by_unit().at("unit_a"), 2u);
  EXPECT_EQ(memory.log().errors_by_unit().at("unit_b"), 1u);
}

TEST(SiteMemoTest, FrameReplacedAtTheSameDepthIsANewSite) {
  // Both frames sit at the same stack depth and their names have the same
  // length, so the frame record, and possibly its name buffer, is reused:
  // only a content comparison tells the two functions apart.
  Memory memory(AccessPolicy::kFailureOblivious);
  Ptr buf = memory.Malloc(8, "buf");
  {
    Memory::Frame frame(memory, "handler_one");
    memory.WriteU8(buf + 16, 1);
  }
  {
    Memory::Frame frame(memory, "handler_two");
    memory.WriteU8(buf + 16, 1);
  }
  EXPECT_EQ(LoggedSites(memory),
            (std::vector<SiteId>{MakeSiteId("buf", "handler_one", AccessKind::kWrite),
                                 MakeSiteId("buf", "handler_two", AccessKind::kWrite)}));
}

// ---- PolicySpec -------------------------------------------------------------

TEST(PolicySpecTest, UniformAndOverridesResolve) {
  PolicySpec spec(AccessPolicy::kBoundless);
  EXPECT_TRUE(spec.uniform());
  EXPECT_EQ(spec.fallback(), AccessPolicy::kBoundless);
  SiteId site = MakeSiteId("u", "f", AccessKind::kRead);
  EXPECT_EQ(spec.Resolve(site), AccessPolicy::kBoundless);
  spec.Set(site, AccessPolicy::kWrap);
  EXPECT_FALSE(spec.uniform());
  EXPECT_EQ(spec.Resolve(site), AccessPolicy::kWrap);
  EXPECT_EQ(spec.Resolve(site + 1), AccessPolicy::kBoundless);
}

TEST(PolicySpecTest, ImplicitFromAccessPolicy) {
  // The compatibility story: a bare AccessPolicy is the uniform spec.
  PolicySpec spec = AccessPolicy::kWrap;
  EXPECT_TRUE(spec.uniform());
  EXPECT_EQ(spec.fallback(), AccessPolicy::kWrap);
}

// ---- Per-site dispatch ------------------------------------------------------

TEST(SiteDispatchTest, OverriddenSiteGetsItsPolicyOthersGetFallback) {
  // Site "fragile @ handler (write)" terminates; everything else continues
  // failure-obliviously.
  PolicySpec spec(AccessPolicy::kFailureOblivious);
  spec.Set(MakeSiteId("fragile", "handler", AccessKind::kWrite), AccessPolicy::kBoundsCheck);
  Memory memory(spec);
  Ptr fragile = memory.Malloc(8, "fragile");
  Ptr robust = memory.Malloc(8, "robust");

  {
    Memory::Frame frame(memory, "handler");
    // Fallback site: invalid write discarded, execution continues.
    memory.WriteU8(robust + 32, 1);
    EXPECT_EQ(memory.log().total_errors(), 1u);
    // Read at the overridden unit: the override is write-kind only.
    (void)memory.ReadU8(fragile + 32);
    EXPECT_EQ(memory.log().total_errors(), 2u);
    // The overridden site terminates.
    RunResult result = RunAsProcess([&] { memory.WriteU8(fragile + 32, 1); });
    EXPECT_EQ(result.status, ExitStatus::kBoundsTerminated);
  }
}

TEST(SiteDispatchTest, SameUnitDifferentFunctionIsADifferentSite) {
  PolicySpec spec(AccessPolicy::kFailureOblivious);
  spec.Set(MakeSiteId("buf", "vulnerable", AccessKind::kWrite), AccessPolicy::kBoundsCheck);
  Memory memory(spec);
  Ptr buf = memory.Malloc(8, "buf");
  {
    Memory::Frame frame(memory, "benign");
    memory.WriteU8(buf + 32, 1);  // falls back: continues
  }
  EXPECT_EQ(memory.log().total_errors(), 1u);
  {
    Memory::Frame frame(memory, "vulnerable");
    RunResult result = RunAsProcess([&] { memory.WriteU8(buf + 32, 1); });
    EXPECT_EQ(result.status, ExitStatus::kBoundsTerminated);
  }
}

TEST(SiteDispatchTest, FreeFollowsTheSiteResolvedPolicy) {
  // An invalid free at a site resolved to BoundsCheck is fatal even though
  // the fallback continues.
  PolicySpec spec(AccessPolicy::kFailureOblivious);
  Memory probe(AccessPolicy::kFailureOblivious);  // to learn the site id
  Ptr probe_p = probe.Malloc(8, "victim");
  probe.Free(probe_p);
  SiteId site = probe.SiteForAccess(probe_p, AccessKind::kWrite);

  spec.Set(site, AccessPolicy::kBoundsCheck);
  Memory memory(spec);
  Ptr p = memory.Malloc(8, "victim");
  memory.Free(p);
  RunResult result = RunAsProcess([&] { memory.Free(p); });  // double free
  EXPECT_EQ(result.status, ExitStatus::kHeapCorruption);

  // Under the pure fallback the same double free is a logged no-op.
  Memory fallback_memory(AccessPolicy::kFailureOblivious);
  Ptr q = fallback_memory.Malloc(8, "victim");
  fallback_memory.Free(q);
  RunResult ok = RunAsProcess([&] { fallback_memory.Free(q); });
  EXPECT_TRUE(ok.ok());
}

// ---- Live respec (Rebind) ---------------------------------------------------

TEST(RebindTest, PreservesMemLogAggregatesAndTakesEffectOnNextAccess) {
  Memory memory(AccessPolicy::kFailureOblivious);
  Ptr buf = memory.Malloc(8, "buf");
  SiteId write_site;
  {
    Memory::Frame frame(memory, "serve");
    write_site = memory.SiteForAccess(buf + 32, AccessKind::kWrite);
    memory.WriteU8(buf + 32, 1);
    memory.WriteU8(buf + 40, 2);
  }
  ASSERT_EQ(memory.log().total_errors(), 2u);
  ASSERT_EQ(memory.log().sites().at(write_site).count, 2u);

  // Respec the live shard: the hot site now terminates.
  PolicySpec respec(AccessPolicy::kFailureOblivious);
  respec.Set(write_site, AccessPolicy::kBoundsCheck);
  memory.Rebind(respec);

  // The error history survived the respec untouched...
  EXPECT_EQ(memory.log().total_errors(), 2u);
  EXPECT_EQ(memory.log().sites().at(write_site).count, 2u);
  EXPECT_EQ(memory.spec().Resolve(write_site), AccessPolicy::kBoundsCheck);

  // ...and the new resolution governs the very next access.
  {
    Memory::Frame frame(memory, "serve");
    RunResult result = RunAsProcess([&] { memory.WriteU8(buf + 32, 3); });
    EXPECT_EQ(result.status, ExitStatus::kBoundsTerminated);
  }
  // The heap survived too: the block is still readable in bounds.
  memory.WriteU8(buf, 7);
  EXPECT_EQ(memory.ReadU8(buf), 7u);
}

TEST(RebindTest, UniformToUniformSwitchesTheFastPathHandler) {
  // Both specs are uniform, so both take the single-dispatch fast path —
  // the rebind must swap which handler that path binds.
  Memory memory(AccessPolicy::kFailureOblivious);
  Ptr buf = memory.Malloc(4, "buf");
  memory.WriteU8(buf, 0xAB);
  memory.Rebind(PolicySpec(AccessPolicy::kWrap));
  {
    Memory::Frame frame(memory, "serve");
    // Wrap redirects the out-of-bounds read back into the unit: offset 4
    // wraps to 0, observing the in-bounds byte — FO would manufacture.
    EXPECT_EQ(memory.ReadU8(buf + 4), 0xAB);
  }
  EXPECT_EQ(memory.log().total_errors(), 1u);
}

TEST(RebindTest, HandlerBankStateSurvivesTheRespec) {
  // Threshold's error counter lives in the handler bank, which Rebind
  // keeps: errors continued *before* the respec still count against the
  // budget after it — the live shard is the same simulated process.
  Memory::Config config;
  config.policy = AccessPolicy::kThreshold;
  config.error_threshold = 3;
  Memory memory(config);
  Ptr buf = memory.Malloc(8, "buf");
  {
    Memory::Frame frame(memory, "serve");
    memory.WriteU8(buf + 32, 1);
    memory.WriteU8(buf + 32, 2);
  }
  EXPECT_EQ(memory.log().total_errors(), 2u);

  // Rebind to a mixed spec that still resolves this site to kThreshold.
  PolicySpec respec(AccessPolicy::kFailureOblivious);
  respec.Set(MakeSiteId("buf", "serve", AccessKind::kWrite), AccessPolicy::kThreshold);
  memory.Rebind(respec);
  {
    Memory::Frame frame(memory, "serve");
    memory.WriteU8(buf + 32, 3);  // third continued error: budget spent
    RunResult result = RunAsProcess([&] { memory.WriteU8(buf + 32, 4); });
    EXPECT_EQ(result.status, ExitStatus::kBoundsTerminated)
        << "the pre-respec error count must still be charged";
  }
}

// ---- New handler semantics --------------------------------------------------

TEST(ZeroManufactureTest, InvalidReadsAreZeroAndConsumeNoSequence) {
  Memory memory(AccessPolicy::kZeroManufacture);
  Ptr p = memory.Malloc(4, "tiny");
  memory.WriteBytes(p, "abcd");
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(memory.ReadU8(p + 100 + i), 0u);
  }
  EXPECT_EQ(memory.sequence().values_produced(), 0u);
  // Writes are discarded like failure-oblivious.
  memory.WriteU8(p + 100, 0xff);
  EXPECT_EQ(memory.ReadU8(p + 100), 0u);
  EXPECT_EQ(memory.ReadBytesAsString(p, 4), "abcd");
}

TEST(ThresholdTest, ContinuesExactlyThroughTheBudgetThenTerminates) {
  Memory::Config config;
  config.policy = AccessPolicy::kThreshold;
  config.error_threshold = 5;
  Memory memory(config);
  Ptr p = memory.Malloc(4, "tiny");
  RunResult result = RunAsProcess([&] {
    for (int i = 0; i < 10; ++i) {
      memory.WriteU8(p + 100, 1);  // each is one invalid access
    }
  });
  EXPECT_EQ(result.status, ExitStatus::kBoundsTerminated);
  // 5 continued + the terminating 6th, all logged.
  EXPECT_EQ(memory.log().total_errors(), 6u);
}

TEST(ThresholdTest, BehavesFailureObliviouslyUnderTheBudget) {
  Memory::Config config;
  config.policy = AccessPolicy::kThreshold;
  config.error_threshold = 100;
  Memory memory(config);
  Ptr p = memory.Malloc(4, "tiny");
  // Manufactured reads follow the paper sequence, like failure-oblivious.
  EXPECT_EQ(memory.ReadU8(p + 100), 0);
  EXPECT_EQ(memory.ReadU8(p + 100), 1);
  EXPECT_EQ(memory.ReadU8(p + 100), 2);
  memory.WriteU8(p, 'x');
  EXPECT_EQ(memory.ReadU8(p), 'x');
}

// ---- Uniform-spec / legacy equivalence --------------------------------------

class Xorshift {
 public:
  explicit Xorshift(uint64_t seed) : state_(seed | 1) {}
  uint64_t Next() {
    state_ ^= state_ >> 12;
    state_ ^= state_ << 25;
    state_ ^= state_ >> 27;
    return state_ * 2685821657736338717ull;
  }
  int64_t Range(int64_t lo, int64_t hi) {  // [lo, hi)
    return lo + static_cast<int64_t>(Next() % static_cast<uint64_t>(hi - lo));
  }

 private:
  uint64_t state_;
};

// legacy: the single-policy constructor (uniform fast path).
// forced:  the same policy via a spec with a redundant override, which
//          routes every access through the per-site dispatch path.
struct EquivalencePair {
  explicit EquivalencePair(AccessPolicy policy)
      : legacy(policy), forced(ForcedConfig(policy)) {}

  static Memory::Config ForcedConfig(AccessPolicy policy) {
    Memory::Config config;
    PolicySpec spec(policy);
    // An override that never loses information: some arbitrary site mapped
    // to the same policy. uniform() is now false, so dispatch engages.
    spec.Set(MakeSiteId("never-allocated", "nowhere", AccessKind::kRead), policy);
    config.policy = spec;
    return config;
  }

  Memory legacy;
  Memory forced;
};

template <typename Op>
void RunBothSides(EquivalencePair& pair, Op op) {
  std::optional<FaultKind> legacy_fault;
  std::optional<FaultKind> forced_fault;
  try {
    op(pair.legacy);
  } catch (const Fault& fault) {
    legacy_fault = fault.kind();
  }
  try {
    op(pair.forced);
  } catch (const Fault& fault) {
    forced_fault = fault.kind();
  }
  ASSERT_EQ(legacy_fault.has_value(), forced_fault.has_value());
  if (legacy_fault.has_value()) {
    EXPECT_EQ(*legacy_fault, *forced_fault);
  }
}

void ExpectIdenticalState(EquivalencePair& pair, const std::vector<Ptr>& units,
                          const std::vector<size_t>& sizes) {
  for (size_t u = 0; u < units.size(); ++u) {
    std::string a(sizes[u], '\0');
    std::string b(sizes[u], '\0');
    bool ra = pair.legacy.space().Read(units[u].addr, a.data(), sizes[u]);
    bool rb = pair.forced.space().Read(units[u].addr, b.data(), sizes[u]);
    ASSERT_EQ(ra, rb);
    EXPECT_EQ(a, b) << "unit " << u << " contents diverged";
  }
  EXPECT_EQ(pair.legacy.access_count(), pair.forced.access_count());
  EXPECT_EQ(pair.legacy.sequence().values_produced(), pair.forced.sequence().values_produced());
  ASSERT_EQ(pair.legacy.log().total_errors(), pair.forced.log().total_errors());
  const auto& ra = pair.legacy.log().recent();
  const auto& rb = pair.forced.log().recent();
  ASSERT_EQ(ra.size(), rb.size());
  for (size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra[i].is_write, rb[i].is_write) << "record " << i;
    EXPECT_EQ(ra[i].addr, rb[i].addr) << "record " << i;
    EXPECT_EQ(ra[i].size, rb[i].size) << "record " << i;
    EXPECT_EQ(ra[i].unit, rb[i].unit) << "record " << i;
    EXPECT_EQ(ra[i].unit_name, rb[i].unit_name) << "record " << i;
    EXPECT_EQ(ra[i].status, rb[i].status) << "record " << i;
    EXPECT_EQ(ra[i].access_index, rb[i].access_index) << "record " << i;
    EXPECT_EQ(ra[i].site, rb[i].site) << "record " << i;
  }
  EXPECT_EQ(pair.legacy.boundless().stored_bytes(), pair.forced.boundless().stored_bytes());
}

class UniformSpecEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<AccessPolicy, uint64_t>> {};

INSTANTIATE_TEST_SUITE_P(
    Sweep, UniformSpecEquivalenceTest,
    ::testing::Combine(::testing::ValuesIn(kAllPolicies), ::testing::Values(11u, 404u)));

TEST_P(UniformSpecEquivalenceTest, DispatchPathMatchesLegacyOnScalarAndSpanPaths) {
  auto [policy, seed] = GetParam();
  EquivalencePair pair(policy);

  std::vector<size_t> sizes = {48, 96, 32};
  std::vector<Ptr> legacy_units;
  std::vector<Ptr> forced_units;
  for (size_t size : sizes) {
    legacy_units.push_back(pair.legacy.Malloc(size, "unit"));
    forced_units.push_back(pair.forced.Malloc(size, "unit"));
    ASSERT_EQ(legacy_units.back().addr, forced_units.back().addr);
  }
  Ptr legacy_dead = pair.legacy.Malloc(64, "dead");
  Ptr forced_dead = pair.forced.Malloc(64, "dead");
  RunBothSides(pair, [&](Memory& memory) {
    memory.Free(&memory == &pair.legacy ? legacy_dead : forced_dead);
  });

  Xorshift rng(seed);
  for (int step = 0; step < 220; ++step) {
    bool use_dead = rng.Next() % 8 == 0;
    size_t u = static_cast<size_t>(rng.Next() % sizes.size());
    size_t unit_size = use_dead ? 64 : sizes[u];
    int64_t offset = rng.Range(-24, static_cast<int64_t>(unit_size) + 24);
    size_t len = static_cast<size_t>(rng.Range(1, 48));
    bool is_write = rng.Next() % 2 == 0;
    // Mode 0: scalar n-byte access; mode 1: span; mode 2: byte loop.
    int mode = static_cast<int>(rng.Next() % 3);
    uint8_t fill = static_cast<uint8_t>(rng.Next());

    std::vector<uint8_t> legacy_out(len, 0xee);
    std::vector<uint8_t> forced_out(len, 0xee);
    RunBothSides(pair, [&](Memory& memory) {
      bool is_legacy = &memory == &pair.legacy;
      Ptr base = use_dead ? (is_legacy ? legacy_dead : forced_dead)
                          : (is_legacy ? legacy_units[u] : forced_units[u]);
      Ptr p = base + offset;
      if (is_write) {
        std::vector<uint8_t> data(len);
        for (size_t i = 0; i < len; ++i) {
          data[i] = static_cast<uint8_t>(fill + i);
        }
        switch (mode) {
          case 0:
            memory.Write(p, data.data(), len);
            break;
          case 1:
            memory.WriteSpan(p, data.data(), len);
            break;
          default:
            for (size_t i = 0; i < len; ++i) {
              memory.WriteU8(p + static_cast<int64_t>(i), data[i]);
            }
        }
      } else {
        uint8_t* out = (is_legacy ? legacy_out : forced_out).data();
        switch (mode) {
          case 0:
            memory.Read(p, out, len);
            break;
          case 1:
            memory.ReadSpan(p, out, len);
            break;
          default:
            for (size_t i = 0; i < len; ++i) {
              out[i] = memory.ReadU8(p + static_cast<int64_t>(i));
            }
        }
      }
    });
    if (!is_write) {
      EXPECT_EQ(legacy_out, forced_out) << "step " << step;
    }
    if (step % 40 == 0) {
      ExpectIdenticalState(pair, legacy_units, sizes);
      if (HasFatalFailure()) {
        return;
      }
    }
  }
  ExpectIdenticalState(pair, legacy_units, sizes);
}

}  // namespace
}  // namespace fob
