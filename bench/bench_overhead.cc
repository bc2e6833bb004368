// §1.1 / §4.7: the cost of dynamic bounds checking.
//
// "Previous experiments with safe-C compilers have indicated that these
//  checks usually cause the program to run less than a factor of two slower
//  ... but in some cases the program may run as much as eight to twelve
//  times slower."
//
// google-benchmark microbenches of the checked-access primitives under the
// Standard (unchecked) and Failure Oblivious (checked) policies, across
// access densities: bulk block transfers amortize the check (low overhead,
// the Apache/MC profile) while byte-at-a-time scans pay it on every access
// (high overhead, the Pine/Sendmail profile).

#include <benchmark/benchmark.h>

#include "src/libc/cstring.h"
#include "src/runtime/access_cursor.h"
#include "src/runtime/memory.h"

namespace fob {
namespace {

AccessPolicy PolicyArg(const benchmark::State& state) {
  return state.range(0) == 0 ? AccessPolicy::kStandard : AccessPolicy::kFailureOblivious;
}

void SetPolicyLabel(benchmark::State& state) {
  state.SetLabel(state.range(0) == 0 ? "Standard" : "FailureOblivious");
}

void BM_ByteWrites(benchmark::State& state) {
  Memory memory(PolicyArg(state));
  SetPolicyLabel(state);
  Ptr buf = memory.Malloc(4096, "buf");
  for (auto _ : state) {
    for (int i = 0; i < 4096; ++i) {
      memory.WriteU8(buf + i, static_cast<uint8_t>(i));
    }
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 4096);
}
BENCHMARK(BM_ByteWrites)->Arg(0)->Arg(1);

void BM_ByteReads(benchmark::State& state) {
  Memory memory(PolicyArg(state));
  SetPolicyLabel(state);
  Ptr buf = memory.Malloc(4096, "buf");
  uint64_t sink = 0;
  for (auto _ : state) {
    for (int i = 0; i < 4096; ++i) {
      sink += memory.ReadU8(buf + i);
    }
  }
  benchmark::DoNotOptimize(sink);
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 4096);
}
BENCHMARK(BM_ByteReads)->Arg(0)->Arg(1);

// The same sequential scans through the span fast path: the cursor resolves
// the unit once and the rest of the run skips the object-table search, so
// the checked policies' per-access cost approaches Standard's.
void BM_CursorByteWrites(benchmark::State& state) {
  Memory memory(PolicyArg(state));
  SetPolicyLabel(state);
  Ptr buf = memory.Malloc(4096, "buf");
  for (auto _ : state) {
    AccessCursor cursor(memory);
    for (int i = 0; i < 4096; ++i) {
      cursor.WriteU8(buf + i, static_cast<uint8_t>(i));
    }
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 4096);
}
BENCHMARK(BM_CursorByteWrites)->Arg(0)->Arg(1);

void BM_CursorByteReads(benchmark::State& state) {
  Memory memory(PolicyArg(state));
  SetPolicyLabel(state);
  Ptr buf = memory.Malloc(4096, "buf");
  uint64_t sink = 0;
  for (auto _ : state) {
    AccessCursor cursor(memory);
    for (int i = 0; i < 4096; ++i) {
      sink += cursor.ReadU8(buf + i);
    }
  }
  benchmark::DoNotOptimize(sink);
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 4096);
}
BENCHMARK(BM_CursorByteReads)->Arg(0)->Arg(1);

void BM_SpanReads(benchmark::State& state) {
  Memory memory(PolicyArg(state));
  SetPolicyLabel(state);
  Ptr buf = memory.Malloc(4096, "buf");
  uint8_t staged[4096];
  for (auto _ : state) {
    memory.ReadSpan(buf, staged, sizeof(staged));
    benchmark::DoNotOptimize(staged[0]);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 4096);
}
BENCHMARK(BM_SpanReads)->Arg(0)->Arg(1);

void BM_SpanWrites(benchmark::State& state) {
  Memory memory(PolicyArg(state));
  SetPolicyLabel(state);
  Ptr buf = memory.Malloc(4096, "buf");
  uint8_t staged[4096];
  for (size_t i = 0; i < sizeof(staged); ++i) {
    staged[i] = static_cast<uint8_t>(i);
  }
  for (auto _ : state) {
    memory.WriteSpan(buf, staged, sizeof(staged));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 4096);
}
BENCHMARK(BM_SpanWrites)->Arg(0)->Arg(1);

void BM_BlockCopy(benchmark::State& state) {
  Memory memory(PolicyArg(state));
  SetPolicyLabel(state);
  size_t size = static_cast<size_t>(state.range(1));
  Ptr src = memory.Malloc(size, "src");
  Ptr dst = memory.Malloc(size, "dst");
  for (auto _ : state) {
    MemCpy(memory, dst, src, size);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(size));
}
BENCHMARK(BM_BlockCopy)->Args({0, 64 << 10})->Args({1, 64 << 10})->Args({0, 1 << 20})->Args({1, 1 << 20});

void BM_StrLenScan(benchmark::State& state) {
  Memory memory(PolicyArg(state));
  SetPolicyLabel(state);
  std::string text(1024, 'a');
  Ptr s = memory.NewCString(text, "scan");
  for (auto _ : state) {
    benchmark::DoNotOptimize(StrLen(memory, s));
  }
}
BENCHMARK(BM_StrLenScan)->Arg(0)->Arg(1);

void BM_MallocFree(benchmark::State& state) {
  Memory memory(PolicyArg(state));
  SetPolicyLabel(state);
  for (auto _ : state) {
    Ptr p = memory.Malloc(128, "block");
    memory.Free(p);
  }
}
BENCHMARK(BM_MallocFree)->Arg(0)->Arg(1);

// The continuation code itself: how expensive is an *invalid* access under
// Failure Oblivious (log + discard/manufacture)?
void BM_DiscardedWrite(benchmark::State& state) {
  Memory::Config config;
  config.policy = AccessPolicy::kFailureOblivious;
  config.log_capacity = 16;
  Memory memory(config);
  Ptr buf = memory.Malloc(16, "small");
  for (auto _ : state) {
    memory.WriteU8(buf + 64, 1);
  }
}
BENCHMARK(BM_DiscardedWrite);

void BM_ManufacturedRead(benchmark::State& state) {
  Memory::Config config;
  config.policy = AccessPolicy::kFailureOblivious;
  config.log_capacity = 16;
  Memory memory(config);
  Ptr buf = memory.Malloc(16, "small");
  uint64_t sink = 0;
  for (auto _ : state) {
    sink += memory.ReadU8(buf + 64);
  }
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_ManufacturedRead);

// The same two continuations with the names Midnight Commander's attack
// logs: a frame function and a local unit name ("vfs_tarfs_resolve::
// linkname_buf") both longer than std::string's small-string buffer, so any
// per-error copy of a name into a fresh string would heap-allocate. The
// "small" pair above cannot show that cost.
void BM_DiscardedWriteNamed(benchmark::State& state) {
  Memory::Config config;
  config.policy = AccessPolicy::kFailureOblivious;
  config.log_capacity = 16;
  Memory memory(config);
  Memory::Frame frame(memory, "vfs_tarfs_resolve");
  Ptr buf = frame.Local(16, "linkname_buf");
  for (auto _ : state) {
    memory.WriteU8(buf + 64, 1);
  }
}
BENCHMARK(BM_DiscardedWriteNamed);

void BM_ManufacturedReadNamed(benchmark::State& state) {
  Memory::Config config;
  config.policy = AccessPolicy::kFailureOblivious;
  config.log_capacity = 16;
  Memory memory(config);
  Memory::Frame frame(memory, "vfs_tarfs_resolve");
  Ptr buf = frame.Local(16, "linkname_buf");
  uint64_t sink = 0;
  for (auto _ : state) {
    sink += memory.ReadU8(buf + 64);
  }
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_ManufacturedReadNamed);

}  // namespace
}  // namespace fob

BENCHMARK_MAIN();
