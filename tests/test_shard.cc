// The shard model: Memory as a façade over one self-contained Shard bundle,
// shard-id stamping through the worker pool (stable across crash
// replacements), and the concurrency-determinism property of parallel
// Frontend dispatch — same stream + same seed + N ∈ {1,2,8} workers produce
// identical merged per-request responses and identical merged MemLog site
// aggregates, because N workers own N disjoint shards and the merge rule is
// deterministic (ascending shard-id order).

#include "src/runtime/shard.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/harness/experiment.h"
#include "src/harness/workloads.h"
#include "src/net/frontend.h"
#include "src/runtime/memory.h"

namespace fob {
namespace {

// ---- The bundle -------------------------------------------------------------

TEST(ShardTest, MemoryIsAFacadeOverItsShard) {
  Memory memory(AccessPolicy::kFailureOblivious);
  // The public views and the shard handle are the same objects.
  EXPECT_EQ(&memory.log(), &memory.shard().log);
  EXPECT_EQ(&memory.space(), &memory.shard().space);
  EXPECT_EQ(&memory.objects(), &memory.shard().table);
  EXPECT_EQ(&memory.heap(), memory.shard().heap.get());
  EXPECT_EQ(&memory.stack(), memory.shard().stack.get());
  EXPECT_EQ(&memory.sequence(), &memory.shard().sequence);
  EXPECT_EQ(memory.access_count(), memory.shard().accesses);
}

TEST(ShardTest, TwoShardsShareNothing) {
  Memory a(AccessPolicy::kFailureOblivious);
  Memory b(AccessPolicy::kFailureOblivious);

  Ptr pa = a.Malloc(8, "a_buf");
  // Committing an error in shard A must not disturb shard B's log, oob
  // registry, sequence, or access counter.
  a.ReadU8(pa + 64);
  EXPECT_EQ(a.log().total_errors(), 1u);
  EXPECT_EQ(b.log().total_errors(), 0u);
  EXPECT_EQ(b.access_count(), 0u);
  EXPECT_EQ(b.sequence().values_produced(), 0u);

  // Identical allocation histories produce identical layouts: the bundles
  // are fully self-contained, with no cross-shard allocation state.
  Ptr pb = b.Malloc(8, "b_buf");
  EXPECT_EQ(pa.addr, pb.addr);
}

TEST(ShardTest, ShardIdIsStampedPerWorkerAndSurvivesReplacement) {
  Frontend frontend(MakeServerAppFactory(Server::kApache, AccessPolicy::kStandard),
                    Frontend::Options{.workers = 3, .batch = 1});
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(frontend.pool().worker(i).memory().shard_id(), i);
  }
  // Crash worker 0's lane (client 1 is the first-seen client, lane 0) and
  // check the replacement keeps the slot's shard id.
  LineChannel& attacker = frontend.Connect(1);
  attacker.ClientSend(
      MakeRequest(RequestTag::kAttack, "get", MakeApacheAttackUrl()).Serialize());
  attacker.ClientClose();
  frontend.Run();
  EXPECT_EQ(frontend.restarts(), 1u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(frontend.pool().worker(i).memory().shard_id(), i);
  }
}

// ---- Concurrency determinism ------------------------------------------------

std::map<SiteId, uint64_t> SiteCounts(const MemLog& log) {
  std::map<SiteId, uint64_t> counts;
  for (const auto& [site, stat] : log.sites()) {
    counts[site] = stat.count;
  }
  return counts;
}

// Apache and Mutt handle each request independently of accumulated shard
// state (their FO continuations do not leak manufactured-sequence phase or
// heap history into responses or error counts), so distributing a stream
// over N shards must not change the merged outcome at all. Pine, Sendmail
// and MC are deliberately not pinned here: their per-request behavior reads
// the shard's manufactured-value phase, which sharding legitimately
// redistributes.
void ExpectMergedOutcomeInvariantAcrossWorkerCounts(Server server) {
  StreamOptions stream_options;
  stream_options.requests = 48;
  stream_options.clients = 6;
  stream_options.attack_period = 4;
  stream_options.attacks_per_period = 1;
  stream_options.seed = 7;
  TrafficStream stream = MakeTrafficStream(server, stream_options);
  ServerFactory factory = MakeServerAppFactory(server, AccessPolicy::kFailureOblivious);

  FrontendReport baseline =
      RunFrontendExperiment(factory, stream, Frontend::Options{.workers = 1, .batch = 4});
  ASSERT_EQ(baseline.responses.size(), stream.requests.size());
  ASSERT_GT(baseline.merged_log.total_errors(), 0u) << "stream reached no error sites";
  ASSERT_EQ(baseline.restarts, 0u);

  for (size_t workers : {2u, 8u}) {
    FrontendReport parallel = RunFrontendExperiment(
        factory, stream, Frontend::Options{.workers = workers, .batch = 4});
    ASSERT_EQ(parallel.responses.size(), stream.requests.size());
    for (size_t i = 0; i < stream.requests.size(); ++i) {
      EXPECT_EQ(parallel.responses[i].Serialize(), baseline.responses[i].Serialize())
          << ServerName(server) << ": response " << i << " differs at workers=" << workers;
    }
    EXPECT_EQ(parallel.merged_log.total_errors(), baseline.merged_log.total_errors())
        << ServerName(server) << " at workers=" << workers;
    EXPECT_EQ(SiteCounts(parallel.merged_log), SiteCounts(baseline.merged_log))
        << ServerName(server) << ": merged site aggregates differ at workers=" << workers;
    EXPECT_EQ(parallel.restarts, 0u);
    EXPECT_EQ(parallel.stats.served, baseline.stats.served);
  }
}

TEST(ShardDeterminismTest, ApacheMergedOutcomeIdenticalFor1And2And8Workers) {
  ExpectMergedOutcomeInvariantAcrossWorkerCounts(Server::kApache);
}

TEST(ShardDeterminismTest, MuttMergedOutcomeIdenticalFor1And2And8Workers) {
  ExpectMergedOutcomeInvariantAcrossWorkerCounts(Server::kMutt);
}

// The page-map fast-path counters are part of the deterministic outcome:
// identical stream + seed + worker count must produce identical merged
// translation hit/miss totals (shards are disjoint and access streams are
// replayed identically, so the counters can only differ if dispatch
// nondeterminism leaked into the access path).
TEST(ShardDeterminismTest, TranslationCountersAreDeterministicPerRun) {
  StreamOptions stream_options;
  stream_options.requests = 48;
  stream_options.clients = 6;
  stream_options.attack_period = 4;
  stream_options.attacks_per_period = 1;
  stream_options.seed = 7;
  TrafficStream stream = MakeTrafficStream(Server::kApache, stream_options);
  ServerFactory factory = MakeServerAppFactory(Server::kApache, AccessPolicy::kFailureOblivious);
  Frontend::Options options{.workers = 2, .batch = 4};

  FrontendReport first = RunFrontendExperiment(factory, stream, options);
  FrontendReport second = RunFrontendExperiment(factory, stream, options);
  ASSERT_GT(first.merged_log.translation_hits() + first.merged_log.translation_misses(), 0u)
      << "stream exercised no checked accesses";
  EXPECT_EQ(first.merged_log.translation_hits(), second.merged_log.translation_hits());
  EXPECT_EQ(first.merged_log.translation_misses(), second.merged_log.translation_misses());
}

TEST(ShardDeterminismTest, StealingKeepsMergedOutcomeInvariantForAHotClient) {
  // One client means one sticky lane: at workers>1 every other lane is idle
  // and the steal plan must redistribute the hot backlog across shards
  // (stolen_batches > 0 — stealing is actually exercised, not vacuous).
  // Apache handles each request independently of shard history, so the
  // merged outcome must still be byte-identical to the single-worker run
  // even though different worker counts steal onto different shards.
  StreamOptions stream_options;
  stream_options.requests = 48;
  stream_options.clients = 1;
  stream_options.attack_period = 4;
  stream_options.attacks_per_period = 1;
  stream_options.seed = 7;
  TrafficStream stream = MakeTrafficStream(Server::kApache, stream_options);
  ServerFactory factory = MakeServerAppFactory(Server::kApache, AccessPolicy::kFailureOblivious);

  FrontendReport baseline =
      RunFrontendExperiment(factory, stream, Frontend::Options{.workers = 1, .batch = 4});
  ASSERT_EQ(baseline.responses.size(), stream.requests.size());
  ASSERT_GT(baseline.merged_log.total_errors(), 0u) << "stream reached no error sites";
  EXPECT_EQ(baseline.stats.stolen_batches, 0u);  // one lane: nothing to steal

  for (size_t workers : {2u, 8u}) {
    FrontendReport parallel = RunFrontendExperiment(
        factory, stream, Frontend::Options{.workers = workers, .batch = 4});
    EXPECT_GT(parallel.stats.stolen_batches, 0u) << "workers=" << workers;
    ASSERT_EQ(parallel.responses.size(), stream.requests.size());
    for (size_t i = 0; i < stream.requests.size(); ++i) {
      EXPECT_EQ(parallel.responses[i].Serialize(), baseline.responses[i].Serialize())
          << "response " << i << " differs at workers=" << workers;
    }
    EXPECT_EQ(parallel.merged_log.total_errors(), baseline.merged_log.total_errors())
        << "workers=" << workers;
    EXPECT_EQ(SiteCounts(parallel.merged_log), SiteCounts(baseline.merged_log))
        << "merged site aggregates differ at workers=" << workers;
    // The merged log carries the scheduler's story too.
    EXPECT_EQ(parallel.merged_log.stolen_batches(), parallel.stats.stolen_batches);
    EXPECT_EQ(parallel.restarts, 0u);
  }
}

TEST(ShardDeterminismTest, CrashingPolicyRunsAreRepeatableUnderParallelDispatch) {
  // Even when workers crash and are replaced mid-run, sticky lanes plus
  // post-join merging make the whole run a deterministic function of the
  // stream: two identical parallel runs agree response-for-response, on
  // restart count, and on requeue accounting. Under both crashing policies
  // the replacements share the factory's read-only docroot with the lanes
  // still serving, and every legitimate response matches a standalone
  // server's byte for byte.
  StreamOptions stream_options;
  stream_options.requests = 32;
  stream_options.clients = 5;
  stream_options.attack_period = 3;
  stream_options.attacks_per_period = 1;
  stream_options.seed = 11;
  TrafficStream stream = MakeTrafficStream(Server::kApache, stream_options);
  Frontend::Options options{.workers = 4, .batch = 4};

  for (AccessPolicy policy : {AccessPolicy::kStandard, AccessPolicy::kBoundsCheck}) {
    SCOPED_TRACE(PolicyName(policy));
    ServerFactory factory = MakeServerAppFactory(Server::kApache, policy);
    FrontendReport first = RunFrontendExperiment(factory, stream, options);
    FrontendReport second = RunFrontendExperiment(factory, stream, options);
    ASSERT_GT(first.restarts, 0u) << "attack stream crashed no workers";
    EXPECT_EQ(first.restarts, second.restarts);
    EXPECT_EQ(first.stats.failed, second.stats.failed);
    EXPECT_EQ(first.stats.requeued, second.stats.requeued);
    EXPECT_EQ(first.stats.batches, second.stats.batches);
    ASSERT_EQ(first.responses.size(), second.responses.size());
    ASSERT_EQ(first.responses.size(), stream.requests.size());
    for (size_t i = 0; i < first.responses.size(); ++i) {
      EXPECT_EQ(first.responses[i].Serialize(), second.responses[i].Serialize())
          << "response " << i;
    }

    std::unique_ptr<ServerApp> standalone = MakeServerApp(Server::kApache, policy);
    size_t legit = 0;
    for (size_t i = 0; i < stream.requests.size(); ++i) {
      if (stream.requests[i].tag != RequestTag::kLegit) {
        continue;
      }
      ++legit;
      EXPECT_EQ(first.responses[i].Serialize(), standalone->Handle(stream.requests[i]).Serialize())
          << "legit response " << i;
    }
    EXPECT_GT(legit, 0u);
  }
}

}  // namespace
}  // namespace fob
