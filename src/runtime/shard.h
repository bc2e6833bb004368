// fob::Shard — one worker's entire simulated universe.
//
// A Shard is the self-contained bundle of simulated-process state the
// failure-oblivious runtime mutates: address space, heap, call stack,
// globals region, Jones-Kelly object table, out-of-bounds registry,
// manufactured-value sequence, boundless store, memory-error log, and the
// per-site policy table. Nothing in this bundle is shared between shards —
// two Memories never touch the same shard — which is what makes worker
// dispatch on real threads safe: N workers own N shards, and the only
// cross-thread state in the whole serving stack is the pool's result slots
// and its atomic restart counter (src/net/frontend.h).
//
// Memory (src/runtime/memory.h) is the access-mediation façade over exactly
// one Shard: it owns the shard handle, charges the access budget, runs the
// checking code, and routes continuations through the shard's policy table.
// Handlers and the span fast path reach the same bundle through
// Memory::shard().
//
// Shards carry a stable id (ShardConfig::shard_id, stamped by the worker
// pool with the worker index). Per-shard MemLogs are merged in ascending
// shard-id order (MemLog::Merge), so experiment and sweep outcomes are
// reproducible no matter how dispatch interleaved on the wall clock.

#ifndef SRC_RUNTIME_SHARD_H_
#define SRC_RUNTIME_SHARD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "src/runtime/boundless.h"
#include "src/runtime/manufactured.h"
#include "src/runtime/memlog.h"
#include "src/runtime/policy.h"
#include "src/runtime/policy_spec.h"
#include "src/softmem/address_space.h"
#include "src/softmem/heap.h"
#include "src/softmem/object_table.h"
#include "src/softmem/oob_registry.h"
#include "src/softmem/page_map.h"
#include "src/softmem/stack.h"

namespace fob {

class Memory;
class PolicyTable;

// How one shard's simulated process is configured. (This is what used to be
// Memory::Config; Memory keeps that name as an alias, so `Memory::Config`
// call sites read unchanged.)
struct ShardConfig {
  // Which continuation runs where: a uniform spec (assignable from a bare
  // AccessPolicy) reproduces the paper's whole-program policies; a spec
  // with per-site overrides enables the Durieux-style search-space sweep.
  PolicySpec policy = AccessPolicy::kFailureOblivious;
  SequenceKind sequence = SequenceKind::kPaper;
  size_t heap_bytes = 16 << 20;
  size_t global_bytes = 1 << 20;
  size_t stack_bytes = 1 << 20;
  size_t log_capacity = MemLog::kDefaultCapacity;
  // 0 = unlimited. When nonzero, the access that exceeds the budget throws
  // Fault{kBudgetExhausted}; the harness uses this to detect hangs.
  uint64_t access_budget = 0;
  // Cap on the Boundless policy's stored out-of-bounds bytes (0 =
  // unbounded); bounds attacker-driven memory growth per the ACSAC
  // variant. The paged store rounds this up to whole 256-byte pages
  // (minimum one page when nonzero) and evicts at page granularity under a
  // clock policy; see src/runtime/boundless_paged.h.
  size_t boundless_capacity = 0;
  // How many invalid accesses the Threshold policy continues through
  // before terminating the program.
  uint64_t error_threshold = 4096;
  // Stable identity of this shard among its worker pool's shards; the merge
  // order for per-shard MemLogs. Stamped by the pool (worker index), 0 for
  // standalone Memories.
  uint32_t shard_id = 0;
};

// One-entry memo of the last SiteId derived for an invalid access, keyed
// by content on (unit name, innermost function, access kind). An overflow
// loop commits its errors at one site, so the names are hashed once per run
// instead of once per error; the id is MakeSiteId's, bit for bit. Keyed by
// content, not by pointer, so a retired unit or popped frame whose storage
// is reused under another name can never alias the memoized site.
class SiteMemo {
 public:
  SiteId Resolve(std::string_view unit_name, std::string_view function, AccessKind kind) {
    if (site_ == kInvalidSite || kind != kind_ || function != function_ ||
        unit_name != unit_name_) {
      site_ = MakeSiteId(unit_name, function, kind);
      unit_name_.assign(unit_name);
      function_.assign(function);
      kind_ = kind;
    }
    return site_;
  }

 private:
  std::string unit_name_;
  std::string function_;
  AccessKind kind_ = AccessKind::kRead;
  SiteId site_ = kInvalidSite;
};

class Shard {
 public:
  // Region layout: globals, heap and stack back to back from kGlobalBase, in
  // that order (tests rely on globals < heap < stack), each followed by one
  // unmapped guard page so running off a region's end faults. The heap and
  // stack bases follow from the config's sizes; all three regions live in
  // the space's single host reservation [kGlobalBase, reservation_end).
  static constexpr Addr kGlobalBase = 0x100000;

  // `owner` is the Memory this shard backs: the policy table's handlers are
  // constructed against it. The constructor only stores the reference.
  Shard(Memory& owner, const ShardConfig& config);
  ~Shard();
  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

  uint32_t id() const { return config.shard_id; }

  ShardConfig config;
  std::unique_ptr<PolicyTable> policy_table;
  const Addr heap_base;
  const Addr stack_low;
  const Addr reservation_end;
  // The O(1) address→unit translation layer, one record per page of the
  // reservation. Declared before the table so it outlives it; the
  // constructor attaches it before any unit is registered, so every
  // Register/Retire in this bundle's lifetime flows through it and the map
  // can never skew from the state it summarizes.
  PageMap page_map;
  AddressSpace space;
  ObjectTable table;
  std::unique_ptr<Heap> heap;
  std::unique_ptr<Stack> stack;
  Addr global_cursor = 0;
  Addr global_end = 0;
  ValueSequence sequence;
  MemLog log;
  SiteMemo site_memo;
  OobRegistry oob;
  BoundlessStore boundless;
  uint64_t accesses = 0;
  // Fast-path resolution counters: a hit is a checked access that resolved
  // through the page map alone; a miss fell into the checking code
  // (Memory::CheckAccess). Deterministic for a given stream + seed +
  // worker count (tests/test_shard.cc); surfaced through MemLog merges and
  // BENCH_check_cost.json.
  uint64_t translation_hits = 0;
  uint64_t translation_misses = 0;
};

}  // namespace fob

#endif  // SRC_RUNTIME_SHARD_H_
