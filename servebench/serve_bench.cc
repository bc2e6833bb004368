// The serving benchmark: one workload through the public Frontend API — a
// timed set-up, then rounds of an open loop (seeded Poisson arrivals at the
// workload's fixed rate) and a closed loop (4 clients, each keeping a fixed
// window of requests in flight). Every response is checked against a
// reference line. See servebench/README.md for the metrics.
//
//   serve_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//               [--trace-out <file.tsv>]
//
// The last stdout line is one JSON object: correct, attempted, failed and
// the metrics (end-to-end with --trace 0, per-layer with --trace 1). The
// exit code is nonzero when any check failed.

#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "servebench/load.h"
#include "servebench/stats.h"
#include "servebench/trace.h"
#include "src/net/frontend.h"
#include "src/runtime/memory.h"

namespace servebench {
namespace {

constexpr size_t kWorkers = 4;
constexpr size_t kClients = 4;
// Closed-loop requests in flight per client: one Frontend batch (8) twice
// over, so every pump hands each lane two batches.
constexpr size_t kWindow = 16;
constexpr int kSetupReps = 11;
constexpr int kMemoryReps = 9;
// The measured part of an untraced run alternates an open-loop and a
// closed-loop segment in each of kRounds rounds. Each phase's figures come
// from its kQuietRounds segments in which the host took the least CPU time
// away (steal, on a shared host), so another guest's load moves a run less;
// a stall the program itself causes shows in every round.
constexpr size_t kRounds = 20;
constexpr size_t kQuietRounds = 5;
// Kept rounds in which the host still took more than this share of CPU
// time print a warning: the run's figures are disturbed.
constexpr double kStealWarning = 0.03;
// Lines timed through the wire codecs, in the run's own kind mix.
constexpr size_t kWireSample = 4096;
constexpr int kMaxDiagnostics = 5;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string trace_out;
};

std::optional<Args> ParseArgs(int argc, char** argv) {
  Args args;
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' && args.seconds > 0.0 &&
                     args.seconds <= 600.0;
    } else if (flag == "--trace") {
      have_trace = value == "0" || value == "1";
      args.trace = value == "1";
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 != 1 || !have_workload || !have_seed || !have_seconds || !have_trace) {
    return std::nullopt;
  }
  return args;
}

// The process's resident set size now; 0 when it cannot be read.
double CurrentRssKb() {
  std::FILE* file = std::fopen("/proc/self/statm", "r");
  if (file == nullptr) {
    return 0.0;
  }
  unsigned long long size = 0, resident = 0;
  const int read = std::fscanf(file, "%llu %llu", &size, &resident);
  std::fclose(file);
  return read == 2 ? static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
                         1024.0
                   : 0.0;
}

// Cumulative CPU ticks of the machine, from the aggregate line of
// /proc/stat: the time the host took away from its virtual CPUs, and all.
struct CpuTicks {
  uint64_t steal = 0;
  uint64_t total = 0;
};

CpuTicks ReadCpuTicks() {
  CpuTicks ticks;
  std::FILE* file = std::fopen("/proc/stat", "r");
  if (file == nullptr) {
    return ticks;
  }
  unsigned long long v[8] = {};
  if (std::fscanf(file, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0], &v[1], &v[2],
                  &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    ticks.steal = v[7];
    for (unsigned long long t : v) {
      ticks.total += t;
    }
  }
  std::fclose(file);
  return ticks;
}

// The share of CPU time the host took away between two readings; 0 when
// /proc/stat could not be read.
double StealShare(const CpuTicks& from, const CpuTicks& to) {
  return to.total > from.total
             ? static_cast<double>(to.steal - from.steal) / static_cast<double>(to.total - from.total)
             : 0.0;
}

double Us(int64_t ns) { return static_cast<double>(ns) / 1e3; }

// CPU time all of the process's threads have used, in ns.
int64_t ProcessCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

// Responses and served legitimate requests, summed over every client.
struct Totals {
  uint64_t sent = 0;
  uint64_t answered = 0;
  uint64_t served = 0;
  uint64_t legit_served = 0;
  uint64_t check_failures = 0;
};

struct ClosedResult {
  double seconds = 0.0;
  double cpu_seconds = 0.0;  // of every thread in the process
  uint64_t responses = 0;
  uint64_t legit_served = 0;

  double throughput_rps() const { return static_cast<double>(responses) / seconds; }
  double legit_rps() const { return static_cast<double>(legit_served) / seconds; }
  double cpu_us_per_req() const { return 1e6 * cpu_seconds / static_cast<double>(responses); }
};

struct OpenResult {
  std::vector<double> latency_us;  // one per response, from its due time
  std::vector<double> gen_late_us;
  // (share of the segment gone, requests waiting) before every pump.
  std::vector<std::pair<double, size_t>> backlog;
};

// Mean backlog in the last quarter of the open-loop segments against the
// second: a backlog that keeps growing means the offered rate is above
// capacity.
struct Backlog {
  double growth = 0.0;
  bool overloaded = false;
};

Backlog BacklogOf(const std::vector<const OpenResult*>& segments) {
  double sum[4] = {0, 0, 0, 0};
  size_t count[4] = {0, 0, 0, 0};
  for (const OpenResult* segment : segments) {
    for (const auto& [share, waiting] : segment->backlog) {
      const size_t quarter = std::min<size_t>(3, static_cast<size_t>(4 * share));
      sum[quarter] += static_cast<double>(waiting);
      ++count[quarter];
    }
  }
  const double second = count[1] > 0 ? sum[1] / static_cast<double>(count[1]) : 0.0;
  const double last = count[3] > 0 ? sum[3] / static_cast<double>(count[3]) : 0.0;
  Backlog backlog;
  backlog.growth = second > 0.0 ? last / second : 0.0;
  backlog.overloaded = backlog.growth > 2.0 && last > 4.0 * kWindow;
  return backlog;
}

class Bench {
 public:
  Bench(const Workload& workload, const Args& args)
      : workload_(workload),
        requests_(MakeRequests(workload)),
        arrivals_(args.seed ^ 0x6f70656e6c6f6f70ull) {
    for (size_t kind = 0; kind < kKinds; ++kind) {
      lines_[kind] = requests_[kind].Serialize();
    }
    for (size_t c = 0; c < kClients; ++c) {
      streams_.emplace_back(args.seed * kClients + c + 1, workload.attack_period);
    }
  }

  void TearDown() { frontend_.reset(); }

  // Builds the Frontend with all workers and connects the clients, after
  // TearDown. Returns seconds.
  double SetUp() {
    const int64_t start = NowNs();
    frontend_ = std::make_unique<fob::Frontend>(MakeTimedFactory(workload_),
                                                fob::Frontend::Options{.workers = kWorkers});
    for (size_t c = 0; c < kClients; ++c) {
      channels_[c] = &frontend_->Connect(c + 1);
    }
    return static_cast<double>(NowNs() - start) / 1e9;
  }

  void ComputeReferences() {
    references_ = servebench::ComputeReferences(workload_, requests_);
    checkers_.clear();
    for (size_t c = 0; c < kClients; ++c) {
      checkers_.emplace_back(references_);
    }
  }

  ClosedResult RunClosed(double seconds) {
    ClosedResult result;
    const Totals base = Sum();
    const int64_t cpu_start = ProcessCpuNs();
    const int64_t start = NowNs();
    const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
    int64_t now = start;
    while (now < end) {
      for (size_t c = 0; c < kClients; ++c) {
        const int64_t send_start = NowNs();
        while (checkers_[c].outstanding() < kWindow) {
          SendNext(c, 0);
        }
        RecordMain(SpanKind::kSend, c, send_start);
      }
      PumpOnce();
      for (size_t c = 0; c < kClients; ++c) {
        Drain(c, nullptr);
      }
      now = NowNs();
    }
    const Totals totals = Sum();
    result.seconds = static_cast<double>(now - start) / 1e9;
    result.cpu_seconds = static_cast<double>(ProcessCpuNs() - cpu_start) / 1e9;
    result.responses = totals.answered - base.answered;
    result.legit_served = totals.legit_served - base.legit_served;
    Settle();
    return result;
  }

  OpenResult RunOpen(double seconds) {
    OpenResult result;
    const double mean_gap_ns = 1e9 / workload_.offered_rps;
    auto gap = [&] { return static_cast<int64_t>(-std::log(arrivals_.Unit()) * mean_gap_ns); };
    const int64_t start = NowNs();
    const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
    int64_t due = start + gap();
    while (true) {
      int64_t now = NowNs();
      while (due <= now && due < end) {
        const size_t client = arrivals_.Below(kClients);
        const int64_t send_start = NowNs();
        SendNext(client, due);
        RecordMain(SpanKind::kSend, client, send_start);
        result.gen_late_us.push_back(Us(send_start - due));
        due += gap();
      }
      const size_t waiting = Outstanding();
      if (waiting == 0) {
        if (due >= end) {
          break;
        }
        now = NowNs();
        if (due - now > 200'000) {
          std::this_thread::sleep_for(std::chrono::nanoseconds(due - now - 100'000));
        }
        continue;
      }
      result.backlog.emplace_back(
          static_cast<double>(now - start) / static_cast<double>(end - start), waiting);
      PumpOnce();
      for (size_t c = 0; c < kClients; ++c) {
        Drain(c, &result.latency_us);
      }
    }
    Settle();
    return result;
  }

  Totals Sum() const {
    Totals totals;
    for (const ClientChecker& checker : checkers_) {
      const ClientChecker::Tally& t = checker.tally();
      totals.sent += t.sent;
      totals.answered += t.matched + t.mismatched;
      totals.served += t.served;
      totals.legit_served += t.legit_served;
      totals.check_failures += t.check_failures();
    }
    return totals;
  }

  // Counts whatever is still unanswered as missing, at the end of the run.
  void CloseMissing() {
    for (ClientChecker& checker : checkers_) {
      checker.CloseMissing();
    }
  }

  fob::Frontend& frontend() { return *frontend_; }
  const std::array<Reference, kKinds>& references() const { return references_; }
  const std::array<std::string, kKinds>& lines() const { return lines_; }
  int64_t verify_ns() const { return verify_ns_; }
  uint64_t verified() const { return verified_; }

 private:
  void SendNext(size_t client, int64_t stamp) {
    const Kind kind = streams_[client].Next();
    channels_[client]->ClientSend(lines_[static_cast<size_t>(kind)]);
    checkers_[client].Sent(kind, stamp);
  }

  void PumpOnce() {
    trace::SetPump(++pump_);
    const int64_t start = NowNs();
    frontend_->Pump();
    RecordMain(SpanKind::kPump, 0, start);
  }

  // Reads and checks every response waiting for one client; with
  // `latency`, records each one's latency from its due time.
  void Drain(size_t client, std::vector<double>* latency) {
    const int64_t start = NowNs();
    uint64_t lines = 0;
    while (true) {
      fob::LineChannel::Recv recv = channels_[client]->ClientReceiveLine();
      if (!recv.has_line()) {
        break;
      }
      ++lines;
      const ClientChecker::Result result = checkers_[client].Receive(recv.line);
      if (latency != nullptr) {
        latency->push_back(Us(start - result.stamp));
      }
      if (!result.ok && diagnostics_ < kMaxDiagnostics) {
        ++diagnostics_;
        std::cerr << "check failed: client " << client + 1 << " expected "
                  << (result.kind == Kind::kAttack ? "attack" : "legit") << " reference ("
                  << DescribeMismatch(references_[static_cast<size_t>(result.kind)].line)
                  << "), got " << DescribeMismatch(recv.line) << "\n";
      }
    }
    if (lines > 0) {
      verify_ns_ += NowNs() - start;
      verified_ += lines;
      RecordMain(SpanKind::kCheck, client, start);
    }
  }

  // Pumps until every request has its response (one pump answers all it
  // ingests, so this ends at once unless something was lost).
  void Settle() {
    for (int attempt = 0; attempt < 16 && Outstanding() > 0; ++attempt) {
      PumpOnce();
      for (size_t c = 0; c < kClients; ++c) {
        Drain(c, nullptr);
      }
    }
  }

  size_t Outstanding() const {
    size_t waiting = 0;
    for (const ClientChecker& checker : checkers_) {
      waiting += checker.outstanding();
    }
    return waiting;
  }

  void RecordMain(SpanKind kind, size_t client, int64_t start) {
    if (!trace::Enabled()) {
      return;
    }
    Span span;
    span.kind = kind;
    span.phase = trace::CurrentPhase();
    span.pump = pump_;
    span.client = static_cast<uint32_t>(client + 1);
    span.start_ns = start;
    span.end_ns = NowNs();
    trace::Record(span);
  }

  const Workload& workload_;
  std::array<fob::ServerRequest, kKinds> requests_;
  // Open-loop arrival times and clients, continued across open-loop phases.
  Rng arrivals_;
  std::array<std::string, kKinds> lines_;
  std::array<Reference, kKinds> references_;
  std::vector<KindStream> streams_;
  std::vector<ClientChecker> checkers_;
  std::unique_ptr<fob::Frontend> frontend_;
  std::array<fob::LineChannel*, kClients> channels_{};
  uint64_t pump_ = 0;
  int64_t verify_ns_ = 0;
  uint64_t verified_ = 0;
  int diagnostics_ = 0;
};

// Metrics in print order: name -> (value, unit). A value that is not
// finite (a figure whose denominator was 0: no Handle spans, no attacks, no
// pumps) is printed as missing and fails the run.
class Metrics {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "") {
    entries_.push_back(Entry{name, value, unit, note, true});
  }
  // Printed with the others but left out of the JSON result.
  void Show(const std::string& name, double value, const std::string& unit,
            const std::string& note = "") {
    entries_.push_back(Entry{name, value, unit, note, false});
  }
  bool complete() const {
    return std::all_of(entries_.begin(), entries_.end(),
                       [](const Entry& e) { return std::isfinite(e.value); });
  }
  void Print(std::ostream& out) const {
    for (const Entry& e : entries_) {
      out << "  " << e.name << " = "
          << (std::isfinite(e.value) ? Format(e.value) + " " + e.unit : "MISSING");
      if (!e.note.empty()) {
        out << "  (" << e.note << ")";
      }
      out << "\n";
    }
  }
  std::string Json() const {
    std::ostringstream out;
    const char* separator = "";
    out << "{";
    for (const Entry& e : entries_) {
      if (e.json) {
        out << separator << "\"" << e.name << "\": {\"value\": " << Format(e.value)
            << ", \"unit\": \"" << e.unit << "\"}";
        separator = ", ";
      }
    }
    out << "}";
    return out.str();
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
    std::string note;
    bool json;
  };
  static std::string Format(double value) {
    if (!std::isfinite(value)) {
      return "null";
    }
    std::ostringstream out;
    out.precision(12);
    out << value;
    return out.str();
  }
  std::vector<Entry> entries_;
};

std::string PercentileNote(const Percentile& p) {
  std::ostringstream out;
  out.precision(4);
  out << "p" << 100.0 * p.q << " of n=" << p.n;
  if (!p.supported) {
    out << ", too few samples";
  }
  return out.str();
}

void AddPercentile(Metrics& metrics, const std::string& name, const std::vector<double>& samples,
                   double q, const std::string& unit) {
  const Percentile p = TailPercentile(samples, q);
  metrics.Add(name, p.value, unit, PercentileNote(p));
}

// Median ns per call of `fn` over passes of `count` calls.
template <typename Fn>
double NsPerCall(size_t count, Fn&& fn) {
  std::vector<double> passes;
  for (int pass = 0; pass < 5; ++pass) {
    const int64_t start = NowNs();
    for (size_t i = 0; i < count; ++i) {
      fn(i);
    }
    passes.push_back(static_cast<double>(NowNs() - start) / static_cast<double>(count));
  }
  return Median(passes);
}

struct Snapshot {
  fob::Frontend::Stats stats;
  uint64_t restarts = 0;
};

Snapshot Take(fob::Frontend& frontend) { return Snapshot{frontend.stats(), frontend.restarts()}; }

// The per-layer figures of the traced closed and open phases.
void AddLayerMetrics(Metrics& metrics, const std::vector<Span>& spans, const Snapshot& before,
                     const Snapshot& after, uint64_t closed_responses) {
  const double kreq = static_cast<double>(closed_responses) / 1000.0;
  std::vector<double> open_pump_us, construct_ms;
  std::unordered_map<uint64_t, std::vector<Interval>> children;  // by pump
  std::vector<const Span*> closed_pumps;
  std::vector<double> handle_us[kKinds];
  std::array<double, kWorkers> lane_busy_ns{};
  double construct_ns = 0, attack_ns = 0;
  uint64_t handles = 0, attacks = 0, accesses = 0, hits = 0, misses = 0, attack_errors = 0,
           dropped = 0, units = 0;
  for (const Span& s : spans) {
    const double duration = static_cast<double>(s.end_ns - s.start_ns);
    if (s.kind == SpanKind::kConstruct) {
      construct_ms.push_back(duration / 1e6);
    }
    if (s.kind == SpanKind::kPump && s.phase == Phase::kOpen) {
      open_pump_us.push_back(duration / 1e3);
    }
    if (s.phase != Phase::kClosed) {
      continue;
    }
    switch (s.kind) {
      case SpanKind::kPump:
        closed_pumps.push_back(&s);
        break;
      case SpanKind::kHandle:
      case SpanKind::kConstruct:
        children[s.pump].push_back(Interval{s.start_ns, s.end_ns});
        if (s.lane >= 0 && static_cast<size_t>(s.lane) < kWorkers) {
          lane_busy_ns[static_cast<size_t>(s.lane)] += duration;
        }
        if (s.kind == SpanKind::kConstruct) {
          construct_ns += duration;
          break;
        }
        ++handles;
        handle_us[static_cast<size_t>(s.tag)].push_back(duration / 1e3);
        accesses += s.accesses;
        hits += s.hits;
        misses += s.misses;
        dropped += s.dropped;
        units += s.units;
        if (s.tag == Kind::kAttack) {
          ++attacks;
          attack_errors += s.errors;
          attack_ns += duration;
        }
        break;
      default:
        break;
    }
  }
  double pump_ns = 0, self_ns = 0;
  for (const Span* pump : closed_pumps) {
    pump_ns += static_cast<double>(pump->end_ns - pump->start_ns);
    auto it = children.find(pump->pump);
    self_ns += static_cast<double>(SelfTime(
        Interval{pump->start_ns, pump->end_ns},
        it == children.end() ? std::vector<Interval>{} : std::move(it->second)));
  }
  double busy_total = 0, busy_max = 0;
  for (double busy : lane_busy_ns) {
    busy_total += busy;
    busy_max = std::max(busy_max, busy);
  }
  const double pumps = static_cast<double>(closed_pumps.size());

  AddPercentile(metrics, "net.pump_us.p50", open_pump_us, 0.50, "us");
  AddPercentile(metrics, "net.pump_us.p99", open_pump_us, 0.99, "us");
  metrics.Add("net.pump_self_us_per_req", self_ns / 1e3 / static_cast<double>(closed_responses),
              "us");
  metrics.Add("net.lane_busy_ratio", busy_total / (kWorkers * pump_ns), "ratio");
  metrics.Add("net.lane_imbalance", busy_max / (busy_total / kWorkers), "ratio");
  metrics.Add("net.reqs_per_pump", static_cast<double>(closed_responses) / pumps, "count");
  metrics.Add("net.batches_per_pump",
              static_cast<double>(after.stats.batches - before.stats.batches) / pumps,
              "count");
  metrics.Add("net.stolen_batches",
              static_cast<double>(after.stats.stolen_batches - before.stats.stolen_batches) / kreq,
              "1/kreq");
  metrics.Add("net.requeued",
              static_cast<double>(after.stats.requeued - before.stats.requeued) / kreq,
              "1/kreq");
  metrics.Add("net.max_lane_depth", static_cast<double>(after.stats.max_lane_depth), "count");
  AddPercentile(metrics, "apps.handle_us.legit.p50", handle_us[0], 0.50, "us");
  AddPercentile(metrics, "apps.handle_us.legit.p99", handle_us[0], 0.99, "us");
  AddPercentile(metrics, "apps.handle_us.attack.p50", handle_us[1], 0.50, "us");
  AddPercentile(metrics, "apps.handle_us.attack.p99", handle_us[1], 0.99, "us");
  const double handled = static_cast<double>(handles);
  metrics.Add("runtime.accesses_per_req", static_cast<double>(accesses) / handled,
              "count");
  metrics.Add("runtime.fastpath_hit_ratio",
              static_cast<double>(hits) / static_cast<double>(hits + misses), "ratio");
  metrics.Add("runtime.errors_per_attack",
              static_cast<double>(attack_errors) / static_cast<double>(attacks), "count");
  // Attack time in us per 1,000 errors is its time in ns per error.
  metrics.Add("runtime.attack_us_per_kerror", attack_ns / static_cast<double>(attack_errors),
              "us");
  metrics.Add("runtime.log_dropped", static_cast<double>(dropped) / handled, "1/req");
  AddPercentile(metrics, "runtime.worker_construct_ms.p50", construct_ms, 0.50, "ms");
  metrics.Add("runtime.restarts_per_kreq",
              static_cast<double>(after.restarts - before.restarts) / kreq, "1/kreq");
  metrics.Add("runtime.restart_share", construct_ns / busy_total, "ratio");
  metrics.Add("softmem.units_registered_per_req", static_cast<double>(units) / handled,
              "count");
}

int Run(const Workload& workload, const Args& args) {
  Bench bench(workload, args);
  const double s = args.seconds;

  // Set-up, timed several times, each after tearing the previous Frontend
  // down; the last Frontend serves the run. Only the first, in a fresh
  // process, adds RSS: the later ones reuse the memory the allocator kept.
  trace::SetPhase(Phase::kSetup);
  trace::Enable(args.trace);
  std::vector<double> setup_s;
  double setup_rss_kb = 0.0;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    bench.TearDown();
    const double rss_before = CurrentRssKb();
    setup_s.push_back(bench.SetUp());
    if (rep == 0) {
      setup_rss_kb = CurrentRssKb() - rss_before;
    }
  }
  trace::Enable(false);
  std::cout << "set-up s:";
  for (double t : setup_s) {
    std::cout << " " << t;
  }
  std::cout << "\n";
  bench.ComputeReferences();
  for (size_t kind = 0; kind < kKinds; ++kind) {
    const bool fo = workload.policy == fob::AccessPolicy::kFailureOblivious;
    if (fo && !bench.references()[kind].served) {
      std::cerr << "reference for kind " << kind << " is not served under "
                << "failure-oblivious: " << DescribeMismatch(bench.references()[kind].line)
                << "\n";
      return 1;
    }
  }

  Metrics metrics;
  std::cout << "workload " << workload.name << " seed " << args.seed << " seconds " << s
            << " trace " << args.trace << " workers " << kWorkers << " clients " << kClients
            << " window " << kWindow << " offered_rps " << workload.offered_rps
            << " hardware_concurrency " << std::thread::hardware_concurrency() << "\n";

  bench.RunOpen(0.1 * s);  // warm-up: checked, not reported
  Backlog backlog;
  if (!args.trace) {
    std::vector<OpenResult> open(kRounds);
    std::vector<ClosedResult> closed(kRounds);
    std::vector<double> open_steal(kRounds), closed_steal(kRounds);
    const double round_s = 0.9 * s / kRounds;
    for (size_t r = 0; r < kRounds; ++r) {
      const CpuTicks t0 = ReadCpuTicks();
      open[r] = bench.RunOpen(0.55 * round_s);
      const CpuTicks t1 = ReadCpuTicks();
      closed[r] = bench.RunClosed(0.45 * round_s);
      const CpuTicks t2 = ReadCpuTicks();
      open_steal[r] = StealShare(t0, t1);
      closed_steal[r] = StealShare(t1, t2);
    }
    std::vector<double> latency_us, rps, legit_rps, cpu_us;
    double kept_steal = 0.0;
    for (size_t r : QuietestRounds(open_steal, kQuietRounds)) {
      latency_us.insert(latency_us.end(), open[r].latency_us.begin(), open[r].latency_us.end());
      kept_steal = std::max(kept_steal, open_steal[r]);
    }
    for (size_t r : QuietestRounds(closed_steal, kQuietRounds)) {
      rps.push_back(closed[r].throughput_rps());
      legit_rps.push_back(closed[r].legit_rps());
      cpu_us.push_back(closed[r].cpu_us_per_req());
      kept_steal = std::max(kept_steal, closed_steal[r]);
    }
    std::vector<const OpenResult*> segments;
    for (const OpenResult& segment : open) {
      segments.push_back(&segment);
    }
    backlog = BacklogOf(segments);

    const std::string kept = "of the " + std::to_string(kQuietRounds) + " least-stolen of " +
                             std::to_string(kRounds) + " rounds";
    metrics.Add("cpu_us_per_req", Median(cpu_us), "us", "median " + kept);
    metrics.Add("setup_s", Median(setup_s), "s", "median of " + std::to_string(kSetupReps));
    metrics.Add("setup_rss_mb", setup_rss_kb / 1024.0, "MB", "RSS added by the first");
    // Wall-clock rates and latencies move with the host's steal far more
    // than with the program, so they are shown here and reported, without
    // a bound, by the traced run.
    metrics.Show("throughput_rps", Median(rps), "req/s", "median " + kept);
    metrics.Show("legit_rps", Median(legit_rps), "req/s", "median " + kept);
    const Percentile p50 = TailPercentile(latency_us, 0.50);
    const Percentile p99 = TailPercentile(latency_us, 0.99);
    metrics.Show("lat_p50_us", p50.value, "us", PercentileNote(p50) + " " + kept);
    metrics.Show("lat_p99_us", p99.value, "us", PercentileNote(p99) + " " + kept);
    std::cout << "rounds: host steal % open/closed, open p50/p99 us, closed req/s, cpu us/req:\n";
    for (size_t r = 0; r < kRounds; ++r) {
      std::cout << "  " << r << ": " << 100.0 * open_steal[r] << "/" << 100.0 * closed_steal[r]
                << "  " << TailPercentile(open[r].latency_us, 0.5).value << "/"
                << TailPercentile(open[r].latency_us, 0.99).value << "  "
                << closed[r].throughput_rps() << "  " << closed[r].cpu_us_per_req() << "\n";
    }
    std::cout << "backlog growth " << backlog.growth << "; host steal in the kept rounds up to "
              << 100.0 * kept_steal << " %\n";
    if (kept_steal > kStealWarning) {
      std::cout << "WARNING: the host took up to " << 100.0 * kept_steal
                << " % of CPU time even in the kept rounds; these figures are disturbed\n";
    }
  } else {
    trace::SetPhase(Phase::kOpen);
    trace::Enable(true);
    const OpenResult open = bench.RunOpen(0.35 * s);
    backlog = BacklogOf({&open});
    trace::Enable(false);
    // RSS growth of the program alone: untraced, current (not peak) RSS.
    const double rss_start = CurrentRssKb();
    const ClosedResult untraced = bench.RunClosed(0.25 * s);
    const double rss_growth =
        (CurrentRssKb() - rss_start) / (static_cast<double>(untraced.responses) / 1000.0);
    trace::SetPhase(Phase::kClosed);
    trace::Enable(true);
    const Snapshot before = Take(bench.frontend());
    const int64_t verify_ns = bench.verify_ns();
    const uint64_t verified = bench.verified();
    const ClosedResult closed = bench.RunClosed(0.25 * s);
    const Snapshot after = Take(bench.frontend());
    trace::Enable(false);
    const double verify_ns_per_rsp = static_cast<double>(bench.verify_ns() - verify_ns) /
                                     static_cast<double>(bench.verified() - verified);
    size_t units_live = 0;
    for (size_t w = 0; w < kWorkers; ++w) {
      units_live += bench.frontend().pool().worker(w).memory().objects().live_count();
    }
    const std::vector<Span> spans = trace::Collect();

    AddLayerMetrics(metrics, spans, before, after, closed.responses);
    metrics.Add("softmem.units_live", static_cast<double>(units_live), "count");

    // The wire codecs on this run's own mix of request and response lines.
    KindStream mix(args.seed, workload.attack_period);
    std::vector<size_t> kinds(kWireSample);
    for (size_t& kind : kinds) {
      kind = static_cast<size_t>(mix.Next());
    }
    std::array<fob::ServerResponse, kKinds> responses;
    double req_bytes = 0, rsp_bytes = 0;
    for (size_t kind = 0; kind < kKinds; ++kind) {
      responses[kind] = *fob::ServerResponse::Deserialize(bench.references()[kind].line);
    }
    for (size_t kind : kinds) {
      req_bytes += static_cast<double>(bench.lines()[kind].size());
      rsp_bytes += static_cast<double>(bench.references()[kind].line.size());
    }
    size_t sink = 0;
    const double decode_ns = NsPerCall(kinds.size(), [&](size_t i) {
      sink += fob::ServerRequest::Deserialize(bench.lines()[kinds[i]])->op.size();
    });
    const double encode_ns =
        NsPerCall(kinds.size(), [&](size_t i) { sink += responses[kinds[i]].Serialize().size(); });
    metrics.Add("wire.req_decode_ns", decode_ns, "ns");
    metrics.Add("wire.rsp_encode_ns", encode_ns, "ns");
    metrics.Add("wire.req_bytes", req_bytes / static_cast<double>(kinds.size()), "B");
    metrics.Add("wire.rsp_bytes", rsp_bytes / static_cast<double>(kinds.size()), "B");

    std::vector<double> memory_us;
    for (int rep = 0; rep < kMemoryReps; ++rep) {
      const int64_t start = NowNs();
      int64_t built = 0;
      {
        fob::Memory memory(workload.policy);
        built = NowNs();
        sink += memory.access_count();
      }
      memory_us.push_back(Us(built - start));
    }
    metrics.Add("runtime.memory_construct_us", Median(memory_us), "us");

    const Totals totals = bench.Sum();
    metrics.Add("throughput_rps", untraced.throughput_rps(), "req/s", "untraced closed loop");
    metrics.Add("legit_rps", untraced.legit_rps(), "req/s", "untraced closed loop");
    AddPercentile(metrics, "lat_p50_us", open.latency_us, 0.50, "us");
    AddPercentile(metrics, "lat_p99_us", open.latency_us, 0.99, "us");
    AddPercentile(metrics, "client.gen_late_us.p99", open.gen_late_us, 0.99, "us");
    metrics.Add("client.verify_ns_per_rsp", verify_ns_per_rsp, "ns");
    metrics.Add("client.lat_samples", static_cast<double>(open.latency_us.size()), "count");
    metrics.Add("client.backlog_growth", backlog.growth, "ratio");
    metrics.Add("trace.overhead_ratio", closed.cpu_us_per_req() / untraced.cpu_us_per_req() - 1.0,
                "ratio", "closed-loop CPU time per request traced / untraced - 1");
    metrics.Add("failed_ratio",
                1.0 - static_cast<double>(totals.served) / static_cast<double>(totals.sent),
                "ratio");
    metrics.Add("rss_growth_kb_per_kreq", rss_growth, "KB", "current RSS, untraced closed loop");
    std::cout << "traced: " << spans.size() << " spans; sink " << (sink & 1) << "\n";
    if (!args.trace_out.empty() && !trace::WriteTsv(args.trace_out, spans)) {
      std::cerr << "could not write " << args.trace_out << "\n";
    }
  }

  bench.CloseMissing();
  const Totals totals = bench.Sum();
  const bool fo = workload.policy == fob::AccessPolicy::kFailureOblivious;
  // Under Failure Oblivious every request must be served; under Bounds
  // Check an attack's expected answer is the crash response.
  const bool correct = totals.check_failures == 0 && (!fo || totals.served == totals.sent) &&
                       metrics.complete();
  if (backlog.overloaded) {
    std::cout << "WARNING: open-loop backlog still growing at the end of the phase: the offered "
              << workload.offered_rps << " req/s is above capacity\n";
  }
  std::cout << "requests " << totals.sent << ", served " << totals.served << ", check failures "
            << totals.check_failures << (metrics.complete() ? "" : ", metrics missing")
            << (correct ? "" : "  CHECK FAILED") << "\n";
  metrics.Print(std::cout);
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << totals.sent << ", \"failed\": " << totals.check_failures
            << ", \"metrics\": " << metrics.Json() << "}" << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) {
  const std::optional<servebench::Args> args = servebench::ParseArgs(argc, argv);
  const servebench::Workload* workload =
      args ? servebench::FindWorkload(args->workload) : nullptr;
  if (workload == nullptr) {
    std::cerr << "usage: serve_bench --workload apache-fo|apache-bc|mc-fo --seed <n> "
                 "--seconds <s> --trace 0|1 [--trace-out <file.tsv>]\n";
    return 2;
  }
  return servebench::Run(*workload, *args);
}
