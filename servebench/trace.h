// In-memory span tracing for the serving benchmark, recorded from outside
// the program: around the benchmark's own calls into Frontend::Pump, the
// client send/check loops, and a ServerApp wrapper the benchmark's factory
// installs around every worker (Handle and worker construction).
//
// Spans go to per-thread buffers that the tracer owns, so they outlive the
// lane threads and every crashed worker. Collect() is called only between
// pumps, when no lane thread runs; the Frontend's executor orders the lane
// threads' writes before Pump() returns.

#ifndef SERVEBENCH_TRACE_H_
#define SERVEBENCH_TRACE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "servebench/load.h"
#include "src/net/frontend.h"

namespace servebench {

enum class SpanKind : uint8_t { kSend, kPump, kHandle, kConstruct, kCheck };
enum class Phase : uint8_t { kSetup, kClosed, kOpen };

struct Span {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t pump = 0;     // pump number current when the span began
  uint32_t client = 0;   // send/check/handle: the client id
  int32_t lane = -1;     // handle/construct: the worker slot; -1 at set-up
  SpanKind kind = SpanKind::kPump;
  Phase phase = Phase::kSetup;
  Kind tag = Kind::kLegit;  // handle: the request kind
  bool crashed = false;     // handle: a fault unwound through the call
  // Handle: the worker's counters across the call.
  uint32_t accesses = 0;
  uint32_t hits = 0;  // page-map fast-path translations
  uint32_t misses = 0;
  uint32_t errors = 0;   // MemLog::total_errors
  uint32_t dropped = 0;  // MemLog::dropped
  uint32_t units = 0;    // ObjectTable::total_registered
};

int64_t NowNs();

namespace trace {

void Enable(bool on);
bool Enabled();
// Read by spans on every thread; set by the pump thread between pumps.
void SetPump(uint64_t pump);
uint64_t CurrentPump();
void SetPhase(Phase phase);
Phase CurrentPhase();

void Record(const Span& span);
// Every span recorded so far, in no particular order.
std::vector<Span> Collect();
void Clear();

// One span per line, tab-separated with a header; false on a write error.
bool WriteTsv(const std::string& path, const std::vector<Span>& spans);

}  // namespace trace

struct Interval {
  int64_t start = 0;
  int64_t end = 0;
};

// The parent's duration minus the part of it covered by the union of the
// children (clipped to the parent), so overlapping children count once.
int64_t SelfTime(Interval parent, std::vector<Interval> children);

// The workload's worker factory, with every worker wrapped so that Handle
// and construction record spans while tracing is on.
fob::Frontend::Factory MakeTimedFactory(const Workload& workload);

}  // namespace servebench

#endif  // SERVEBENCH_TRACE_H_
