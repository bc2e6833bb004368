#include "servebench/load.h"

#include <memory>
#include <optional>

#include "src/harness/workloads.h"
#include "src/runtime/process.h"

namespace servebench {

namespace {

// Rates are about half of what the open loop sustains on a 4-core machine,
// so it measures queueing below saturation. An open-loop pump carries only
// the few requests due since the last one and is a barrier, so that is well
// below the closed-loop throughput (about a quarter of it for apache-fo and
// mc-fo, less under Bounds Check, where any restart stalls the pump).
constexpr Workload kWorkloads[] = {
    {"apache-fo", fob::Server::kApache, fob::AccessPolicy::kFailureOblivious, 4, 12000.0},
    {"apache-bc", fob::Server::kApache, fob::AccessPolicy::kBoundsCheck, 4, 250.0},
    {"mc-fo", fob::Server::kMc, fob::AccessPolicy::kFailureOblivious, 2, 800.0},
};

}  // namespace

const Workload* FindWorkload(std::string_view name) {
  for (const Workload& workload : kWorkloads) {
    if (name == workload.name) {
      return &workload;
    }
  }
  return nullptr;
}

std::array<fob::ServerRequest, kKinds> MakeRequests(const Workload& workload) {
  std::array<fob::ServerRequest, kKinds> requests;
  fob::ServerRequest& legit = requests[static_cast<size_t>(Kind::kLegit)];
  fob::ServerRequest& attack = requests[static_cast<size_t>(Kind::kAttack)];
  if (workload.server == fob::Server::kApache) {
    // /files/big.bin is left out: one 830 KB body would swamp the mix.
    legit = fob::MakeRequest(fob::RequestTag::kLegit, "get", "/index.html");
    legit.expect = "4000";
    attack = fob::MakeRequest(fob::RequestTag::kAttack, "get", fob::MakeApacheAttackUrl());
  } else {
    legit = fob::MakeRequest(fob::RequestTag::kLegit, "browse");
    legit.payload = fob::MakeMcBenignTgz();
    attack = fob::MakeRequest(fob::RequestTag::kAttack, "browse");
    attack.payload = fob::MakeMcAttackTgz();
    attack.expect = "6";
  }
  return requests;
}

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

KindStream::KindStream(uint64_t seed, size_t period) : rng_(seed), period_(period) {}

Kind KindStream::Next() {
  if (pos_ == 0) {
    attack_at_ = rng_.Below(period_);
  }
  const Kind kind = pos_ == attack_at_ ? Kind::kAttack : Kind::kLegit;
  pos_ = (pos_ + 1) % period_;
  return kind;
}

std::array<Reference, kKinds> ComputeReferences(
    const Workload& workload, const std::array<fob::ServerRequest, kKinds>& requests) {
  std::array<Reference, kKinds> references;
  for (size_t kind = 0; kind < kKinds; ++kind) {
    std::unique_ptr<fob::ServerApp> app = fob::MakeServerApp(workload.server, workload.policy);
    fob::ServerResponse response;
    const fob::RunResult run = fob::RunAsProcess([&] { response = app->Handle(requests[kind]); });
    if (run.crashed()) {
      response = fob::ServerResponse{};
      response.status = 500;
      response.error = "worker crashed: " + run.detail;
    }
    references[kind].line = response.Serialize();
    references[kind].served = !run.crashed() && response.status != 500 &&
                              response.status != 503 && response.acceptable;
  }
  return references;
}

void ClientChecker::Sent(Kind kind, int64_t stamp) {
  expected_.emplace_back(kind, stamp);
  ++tally_.sent;
}

ClientChecker::Result ClientChecker::Receive(const std::string& line) {
  if (expected_.empty()) {
    ++tally_.extra;
    return Result{};
  }
  const auto [kind, stamp] = expected_.front();
  expected_.pop_front();
  const Reference& reference = (*references_)[static_cast<size_t>(kind)];
  if (line != reference.line) {
    ++tally_.mismatched;
    return Result{false, kind, stamp};
  }
  ++tally_.matched;
  if (reference.served) {
    ++tally_.served;
    if (kind == Kind::kLegit) {
      ++tally_.legit_served;
    }
  }
  return Result{true, kind, stamp};
}

void ClientChecker::CloseMissing() {
  tally_.missing += expected_.size();
  expected_.clear();
}

std::string DescribeMismatch(const std::string& line) {
  std::optional<fob::ServerResponse> response = fob::ServerResponse::Deserialize(line);
  if (!response) {
    return "malformed line of " + std::to_string(line.size()) + " bytes";
  }
  return "status " + std::to_string(response->status) + " ok " +
         std::to_string(response->ok) + " acceptable " + std::to_string(response->acceptable) +
         " body " + std::to_string(response->body.size()) + " bytes, error '" +
         response->error.substr(0, 120) + "'";
}

}  // namespace servebench
