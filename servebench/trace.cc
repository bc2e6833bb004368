#include "servebench/trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <fstream>
#include <mutex>
#include <utility>

#include "src/harness/workloads.h"

namespace servebench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace trace {
namespace {

std::atomic<bool> g_enabled{false};
std::atomic<uint64_t> g_pump{0};
std::atomic<Phase> g_phase{Phase::kSetup};

std::mutex g_buffers_mu;
// One buffer per thread that ever recorded; never freed, so a buffer
// outlives its thread.
std::vector<std::unique_ptr<std::vector<Span>>> g_buffers;  // guarded by g_buffers_mu

thread_local std::vector<Span>* t_buffer = nullptr;

}  // namespace

void Enable(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }
void SetPump(uint64_t pump) { g_pump.store(pump, std::memory_order_relaxed); }
uint64_t CurrentPump() { return g_pump.load(std::memory_order_relaxed); }
void SetPhase(Phase phase) { g_phase.store(phase, std::memory_order_relaxed); }
Phase CurrentPhase() { return g_phase.load(std::memory_order_relaxed); }

void Record(const Span& span) {
  if (t_buffer == nullptr) {
    std::lock_guard<std::mutex> lock(g_buffers_mu);
    g_buffers.push_back(std::make_unique<std::vector<Span>>());
    t_buffer = g_buffers.back().get();
  }
  t_buffer->push_back(span);
}

std::vector<Span> Collect() {
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  std::vector<Span> spans;
  for (const auto& buffer : g_buffers) {
    spans.insert(spans.end(), buffer->begin(), buffer->end());
  }
  return spans;
}

void Clear() {
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  for (const auto& buffer : g_buffers) {
    buffer->clear();
  }
}

bool WriteTsv(const std::string& path, const std::vector<Span>& spans) {
  static constexpr const char* kKindNames[] = {"send", "pump", "handle", "construct", "check"};
  static constexpr const char* kPhaseNames[] = {"setup", "closed", "open"};
  std::ofstream out(path);
  out << "kind\tphase\tpump\tclient\tlane\ttag\tcrashed\tstart_ns\tend_ns\taccesses\thits\t"
         "misses\terrors\tdropped\tunits\n";
  for (const Span& s : spans) {
    out << kKindNames[static_cast<size_t>(s.kind)] << '\t'
        << kPhaseNames[static_cast<size_t>(s.phase)] << '\t' << s.pump << '\t' << s.client
        << '\t' << s.lane << '\t' << (s.tag == Kind::kAttack ? "attack" : "legit") << '\t'
        << s.crashed << '\t' << s.start_ns << '\t' << s.end_ns << '\t' << s.accesses << '\t'
        << s.hits << '\t' << s.misses << '\t' << s.errors << '\t' << s.dropped << '\t'
        << s.units << '\n';
  }
  out.close();
  return static_cast<bool>(out);
}

}  // namespace trace

int64_t SelfTime(Interval parent, std::vector<Interval> children) {
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) { return a.start < b.start; });
  int64_t covered = 0;
  int64_t reach = parent.start;  // everything before reach is already counted
  for (const Interval& child : children) {
    const int64_t start = std::max(child.start, reach);
    const int64_t end = std::min(child.end, parent.end);
    if (end > start) {
      covered += end - start;
      reach = end;
    }
  }
  return (parent.end - parent.start) - covered;
}

namespace {

// The worker slot last served by this thread. A crash replacement is built
// on the thread whose Handle just faulted, so it inherits that slot.
thread_local int32_t t_lane = -1;

uint32_t Delta(uint64_t after, uint64_t before) { return static_cast<uint32_t>(after - before); }

// Records one Handle span when destroyed, including when a fault unwinds
// through the call: the worker's Memory is still alive at that point, since
// the pool replaces a crashed worker only after the fault is caught.
class HandleScope {
 public:
  HandleScope(fob::Memory& memory, const fob::ServerRequest& request)
      : memory_(memory), exceptions_(std::uncaught_exceptions()) {
    span_.kind = SpanKind::kHandle;
    span_.phase = trace::CurrentPhase();
    span_.pump = trace::CurrentPump();
    span_.client = static_cast<uint32_t>(request.client_id);
    span_.lane = static_cast<int32_t>(memory.shard_id());
    span_.tag = request.tag == fob::RequestTag::kAttack ? Kind::kAttack : Kind::kLegit;
    t_lane = span_.lane;
    accesses_ = memory.access_count();
    hits_ = memory.translation_hits();
    misses_ = memory.translation_misses();
    errors_ = memory.log().total_errors();
    dropped_ = memory.log().dropped();
    units_ = memory.objects().total_registered();
    span_.start_ns = NowNs();
  }
  ~HandleScope() {
    span_.end_ns = NowNs();
    span_.crashed = std::uncaught_exceptions() > exceptions_;
    span_.accesses = Delta(memory_.access_count(), accesses_);
    span_.hits = Delta(memory_.translation_hits(), hits_);
    span_.misses = Delta(memory_.translation_misses(), misses_);
    span_.errors = Delta(memory_.log().total_errors(), errors_);
    span_.dropped = Delta(memory_.log().dropped(), dropped_);
    span_.units = Delta(memory_.objects().total_registered(), units_);
    trace::Record(span_);
  }
  HandleScope(const HandleScope&) = delete;
  HandleScope& operator=(const HandleScope&) = delete;

 private:
  fob::Memory& memory_;
  const int exceptions_;
  Span span_;
  uint64_t accesses_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t errors_ = 0;
  uint64_t dropped_ = 0;
  uint64_t units_ = 0;
};

class TimedApp : public fob::ServerApp {
 public:
  explicit TimedApp(std::unique_ptr<fob::ServerApp> inner) : inner_(std::move(inner)) {}

  void BeginSession(uint64_t client_id) override { inner_->BeginSession(client_id); }
  fob::ServerResponse Handle(const fob::ServerRequest& request) override {
    if (!trace::Enabled()) {
      return inner_->Handle(request);
    }
    HandleScope scope(inner_->memory(), request);
    return inner_->Handle(request);
  }
  void EndSession(uint64_t client_id) override { inner_->EndSession(client_id); }
  fob::Memory& memory() override { return inner_->memory(); }

 private:
  std::unique_ptr<fob::ServerApp> inner_;
};

}  // namespace

fob::Frontend::Factory MakeTimedFactory(const Workload& workload) {
  return [base = fob::MakeServerAppFactory(workload.server, workload.policy)] {
    Span span;
    span.kind = SpanKind::kConstruct;
    span.phase = trace::CurrentPhase();
    span.pump = trace::CurrentPump();
    span.lane = span.phase == Phase::kSetup ? -1 : t_lane;
    span.start_ns = NowNs();
    std::unique_ptr<fob::ServerApp> app = std::make_unique<TimedApp>(base());
    span.end_ns = NowNs();
    if (trace::Enabled()) {
      trace::Record(span);
    }
    return app;
  };
}

}  // namespace servebench
