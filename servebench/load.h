// Workloads, seeded request generation and response checking for the
// serving benchmark (servebench/README.md).
//
// Every workload has exactly two request kinds, a legitimate one and an
// attack, each with one fixed wire line. The seed decides which kind each
// client sends next and when open-loop requests are due; the program only
// ever sees the generated lines.

#ifndef SERVEBENCH_LOAD_H_
#define SERVEBENCH_LOAD_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <string_view>

#include "src/apps/server_app.h"
#include "src/runtime/policy.h"

namespace servebench {

enum class Kind : uint8_t { kLegit = 0, kAttack = 1 };
inline constexpr size_t kKinds = 2;

struct Workload {
  const char* name;
  fob::Server server;
  fob::AccessPolicy policy;
  // Exactly one attack in every block of `attack_period` requests a client
  // sends, at a seeded position, so the attack share is fixed per run.
  size_t attack_period;
  // Open-loop Poisson arrival rate, about half the closed-loop capacity.
  double offered_rps;
};

// nullptr when no workload has that name.
const Workload* FindWorkload(std::string_view name);

// The two request kinds of a workload, indexed by Kind.
std::array<fob::ServerRequest, kKinds> MakeRequests(const Workload& workload);

// splitmix64.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  size_t Below(size_t n) { return static_cast<size_t>(Next() % n); }
  // Uniform in (0, 1].
  double Unit() { return static_cast<double>((Next() >> 11) + 1) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

// One client's request kinds: blocks of `period`, one attack per block.
class KindStream {
 public:
  KindStream(uint64_t seed, size_t period);
  Kind Next();

 private:
  Rng rng_;
  size_t period_;
  size_t pos_ = 0;
  size_t attack_at_ = 0;
};

// What a correct server answers to one request kind.
struct Reference {
  std::string line;
  // The request was served: not a 500 crash or 503 shed, and the server
  // judged the response acceptable.
  bool served = false;
};

// One reference per kind, from a standalone ServerApp of the workload's
// server and policy. A request that crashes that app gets the Frontend's
// crash answer (status 500, "worker crashed: <fault>").
std::array<Reference, kKinds> ComputeReferences(
    const Workload& workload, const std::array<fob::ServerRequest, kKinds>& requests);

// Checks one client's response stream: each received line must equal the
// reference of the oldest request still outstanding (per-client FIFO). Two
// requests of different kinds answered out of order therefore mismatch.
class ClientChecker {
 public:
  struct Tally {
    uint64_t sent = 0;
    uint64_t matched = 0;     // equal to the expected reference line
    uint64_t served = 0;      // matched and the reference counts as served
    uint64_t legit_served = 0;
    uint64_t mismatched = 0;  // differs from the expected reference line
    uint64_t extra = 0;       // a line with no request outstanding
    uint64_t missing = 0;     // requests never answered
    uint64_t check_failures() const { return mismatched + extra + missing; }
  };
  struct Result {
    bool ok = false;
    Kind kind = Kind::kLegit;
    int64_t stamp = 0;  // what Sent() was given
  };

  explicit ClientChecker(const std::array<Reference, kKinds>& references)
      : references_(&references) {}

  void Sent(Kind kind, int64_t stamp = 0);
  Result Receive(const std::string& line);
  // Counts every request still outstanding as missing.
  void CloseMissing();

  size_t outstanding() const { return expected_.size(); }
  const Tally& tally() const { return tally_; }

 private:
  const std::array<Reference, kKinds>* references_;
  std::deque<std::pair<Kind, int64_t>> expected_;
  Tally tally_;
};

// Why a line differs from its reference, for diagnostics only: decodes it.
std::string DescribeMismatch(const std::string& line);

}  // namespace servebench

#endif  // SERVEBENCH_LOAD_H_
