#include "src/runtime/shard.h"

#include "src/runtime/policy_table.h"

namespace fob {

namespace {
// Where the next region starts: past `bytes` of this one and its guard page.
Addr NextRegion(Addr base, size_t bytes) { return base + PageRoundUp(bytes) + kPageSize; }
}  // namespace

Shard::Shard(Memory& owner, const ShardConfig& cfg)
    : config(cfg),
      policy_table(std::make_unique<PolicyTable>(owner, cfg.policy)),
      heap_base(NextRegion(kGlobalBase, cfg.global_bytes)),
      stack_low(NextRegion(heap_base, cfg.heap_bytes)),
      reservation_end(NextRegion(stack_low, cfg.stack_bytes + Stack::kTopPad)),
      page_map(kGlobalBase, reservation_end - kGlobalBase),
      space(kGlobalBase, reservation_end - kGlobalBase),
      sequence(cfg.sequence),
      log(cfg.log_capacity),
      boundless(cfg.boundless_capacity) {
  table.AttachPageMap(&page_map);
  heap = std::make_unique<Heap>(space, table, heap_base, config.heap_bytes);
  stack = std::make_unique<Stack>(space, table, stack_low, config.stack_bytes);
  space.Map(kGlobalBase, config.global_bytes);
  global_cursor = kGlobalBase;
  global_end = kGlobalBase + config.global_bytes;
}

Shard::~Shard() = default;

}  // namespace fob
