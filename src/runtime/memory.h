// fob::Memory — the failure-oblivious runtime.
//
// Memory is what the code emitted by a failure-oblivious compiler would link
// against: the access-mediation façade over one fob::Shard — the
// self-contained simulated process image (address space, heap, call stack,
// globals, Jones-Kelly object table, error log, policy table; see
// src/runtime/shard.h). Memory mediates every load and store according to
// the shard's PolicySpec:
//
//   * checking code: classify the access against the pointer's intended
//     referent (src/softmem/oob_registry.h);
//   * fast path: before any policy machinery runs, the access is offered to
//     the shard's page-granular unit map (src/softmem/page_map.h) — a valid
//     access through the sole live unit on its page resolves in O(1) with no
//     checking code at all, and behaves identically under every policy, so
//     the fast path is taken unconditionally. Misses fall through to the
//     full pipeline byte-identically. Access resolution is therefore three
//     tiers: page-map fast path → checking code (the referent looked up by
//     id, then a bounds compare) → policy resolution (see
//     src/runtime/handlers/README.md);
//   * continuation code: for invalid accesses, do what the resolved policy
//     says — crash (kStandard, by actually performing/faulting the raw
//     access), terminate (kBoundsCheck), discard-writes/manufacture-reads
//     (kFailureOblivious, §3), store-and-return out-of-bounds bytes
//     (kBoundless, §5.1), wrap offsets back into the unit (kWrap, §5.1),
//     manufacture zeros only (kZeroManufacture), or continue until an error
//     budget is spent (kThreshold).
//
// Policy selection is per *site* (src/runtime/policy_spec.h): the PolicySpec
// in Config maps SiteId -> AccessPolicy with a default fallback, resolved
// through the shard's PolicyTable (src/runtime/policy_table.h) to
// PolicyHandler strategies (src/runtime/handlers/). A uniform spec — the
// common case, and what the legacy Memory(AccessPolicy) constructor builds —
// binds one handler at construction so the hot access path stays a single
// virtual dispatch, exactly as before per-site resolution existed. A mixed
// spec routes only *invalid* accesses through site resolution: in-bounds
// accesses are policy-independent, so the per-site machinery costs nothing
// until the checking code actually fails.
//
// The Standard policy skips the checking code entirely and touches the page
// map only, so the measured gap between Standard and the checked
// policies reproduces the cost profile of inserting dynamic checks.
//
// Every Memory owns exactly one Shard and shares nothing mutable with any
// other Memory, so concurrent workers each holding their own Memory may run
// on real threads with no synchronization (src/net/frontend.h).
//
// "Programs" written against this runtime allocate with Malloc/Frame::Local,
// address memory through fob::Ptr, and access it through Read*/Write*.

#ifndef SRC_RUNTIME_MEMORY_H_
#define SRC_RUNTIME_MEMORY_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "src/runtime/memlog.h"
#include "src/runtime/policy.h"
#include "src/runtime/policy_spec.h"
#include "src/runtime/ptr.h"
#include "src/runtime/shard.h"
#include "src/softmem/fault.h"

namespace fob {

class AccessCursor;
class PolicyHandler;

class Memory {
 public:
  // The shard bundle's configuration; kept under the historical name so
  // `Memory::Config` call sites read unchanged.
  using Config = ShardConfig;

  // Thin compatibility constructor: a uniform spec over one policy.
  explicit Memory(AccessPolicy policy);
  explicit Memory(const PolicySpec& spec);
  explicit Memory(const Config& config);
  ~Memory();
  Memory(const Memory&) = delete;
  Memory& operator=(const Memory&) = delete;

  // The fallback (whole-program) policy; per-site overrides live in spec().
  AccessPolicy policy() const { return shard_->config.policy.fallback(); }
  const PolicySpec& spec() const { return shard_->config.policy; }

  // Re-specs the live shard's policy resolution at an epoch boundary: the
  // MemLog keeps its aggregates, the handler bank keeps its state (a
  // Threshold counter survives), the heap/object table are untouched — only
  // SiteId -> AccessPolicy resolution changes, effective from the next
  // access. Must not be called while another thread is accessing this
  // Memory (the Frontend rebinds between pumps, when no lane threads run).
  void Rebind(const PolicySpec& spec);

  // What the checking code learned about one access: whether it may proceed,
  // how the pointer relates to its intended referent, and the referent
  // itself. Produced by CheckAccess, consumed by the PolicyHandler
  // continuation implementations (src/runtime/handlers/).
  struct CheckResult {
    bool in_bounds = false;
    PointerStatus status = PointerStatus::kWild;
    const DataUnit* unit = nullptr;  // intended referent (may be dead)
  };

  // ---- Allocation -------------------------------------------------------

  // malloc/free/realloc over the simulated heap. Free/Realloc of a bad
  // pointer follow the policy resolved for the block's site: Standard and
  // BoundsCheck fault, the continuing policies log and ignore.
  Ptr Malloc(size_t size, std::string name = "alloc");
  void Free(Ptr p);
  Ptr Realloc(Ptr p, size_t new_size);

  // Globals live forever (bump allocated, zero initialized).
  Ptr AllocGlobal(size_t size, std::string name = "global");

  // ---- Simulated call stack ---------------------------------------------

  // RAII frame: construction is function entry, destruction is return (with
  // the canary check — unless C++ is already unwinding a Fault, in which
  // case the simulated process is crashing and no return happens).
  class Frame {
   public:
    Frame(Memory& memory, std::string function);
    // noexcept(false): returning from a function whose canary was smashed
    // IS the crash (Fault{kStackSmash}), and it happens exactly here. The
    // destructor only rethrows when no other exception is in flight.
    ~Frame() noexcept(false);
    Frame(const Frame&) = delete;
    Frame& operator=(const Frame&) = delete;
    // Allocates an (uninitialized) local buffer in this frame.
    Ptr Local(size_t size, std::string name = "local");

   private:
    Memory& memory_;
    int exceptions_at_entry_;
  };

  // ---- Checked access ----------------------------------------------------

  // One n-byte access: a single budget charge and a single classification;
  // an invalid access produces one log record covering all n bytes.
  void Read(Ptr p, void* dst, size_t n);
  void Write(Ptr p, const void* src, size_t n);

  // Span access: observably identical to the ReadU8/WriteU8 loop over
  // [p, p+n) — per-byte budget charges, per-byte error records and per-byte
  // continuation for out-of-bounds bytes — but in-bounds runs within one
  // data unit are executed as a single block copy with the object-table
  // search hoisted out (the runtime analogue of the paper's compiler
  // hoisting checks out of loops). For sequential clients that keep state
  // across calls, construct an AccessCursor instead.
  void ReadSpan(Ptr p, void* dst, size_t n);
  void WriteSpan(Ptr p, const void* src, size_t n);

  uint8_t ReadU8(Ptr p);
  int8_t ReadI8(Ptr p) { return static_cast<int8_t>(ReadU8(p)); }
  uint16_t ReadU16(Ptr p);
  uint32_t ReadU32(Ptr p);
  int32_t ReadI32(Ptr p) { return static_cast<int32_t>(ReadU32(p)); }
  uint64_t ReadU64(Ptr p);
  void WriteU8(Ptr p, uint8_t v);
  void WriteI8(Ptr p, int8_t v) { WriteU8(p, static_cast<uint8_t>(v)); }
  void WriteU16(Ptr p, uint16_t v);
  void WriteU32(Ptr p, uint32_t v);
  void WriteI32(Ptr p, int32_t v) { WriteU32(p, static_cast<uint32_t>(v)); }
  void WriteU64(Ptr p, uint64_t v);

  // ---- Host bridging (all via checked accesses) --------------------------

  // Heap-allocates a NUL-terminated copy of s.
  Ptr NewCString(std::string_view s, std::string name = "cstring");
  // Heap-allocates a copy of exactly bytes.size() bytes.
  Ptr NewBytes(std::string_view bytes, std::string name = "bytes");
  // Reads bytes until NUL (checked reads, so manufactured values can
  // terminate it); stops at limit as a harness safety net.
  std::string ReadCString(Ptr p, size_t limit = 1 << 16);
  std::string ReadBytesAsString(Ptr p, size_t n);
  // Span-path staging: reads n bytes with ReadSpan semantics (per-byte
  // policy continuation, amortized checks) into a host string. The shared
  // entry point for parsers that stage simulated buffers out (codec, mbox,
  // http).
  std::string ReadSpanAsString(Ptr p, size_t n);
  void WriteBytes(Ptr p, std::string_view bytes);

  // ---- Introspection ------------------------------------------------------

  // The shard handle: this Memory's whole simulated universe. Everything
  // below is a view into it.
  Shard& shard() { return *shard_; }
  const Shard& shard() const { return *shard_; }
  // Stable worker identity for merged-log ordering; stamped by the pool.
  uint32_t shard_id() const { return shard_->config.shard_id; }
  void set_shard_id(uint32_t id) { shard_->config.shard_id = id; }

  MemLog& log() { return shard_->log; }
  const MemLog& log() const { return shard_->log; }
  uint64_t access_count() const { return shard_->accesses; }
  // Page-map fast-path resolution counters (see Shard::translation_hits).
  uint64_t translation_hits() const { return shard_->translation_hits; }
  uint64_t translation_misses() const { return shard_->translation_misses; }
  void set_access_budget(uint64_t budget) { shard_->config.access_budget = budget; }
  PointerStatus Classify(Ptr p, size_t n = 1) const;

  AddressSpace& space() { return shard_->space; }
  const ObjectTable& objects() const { return shard_->table; }
  Heap& heap() { return *shard_->heap; }
  Stack& stack() { return *shard_->stack; }
  ValueSequence& sequence() { return shard_->sequence; }
  const OobRegistry& oob() const { return shard_->oob; }
  const BoundlessStore& boundless() const { return shard_->boundless; }

  // The site id the *next* invalid access through p would resolve to, given
  // the current stack frame. What the sweep and the tests use to name sites
  // without replaying a whole workload.
  SiteId SiteForAccess(Ptr p, AccessKind kind) const;

 private:
  friend class PolicyHandler;
  friend class AccessCursor;

  void BumpAccess();
  // Tier 1: resolve the access through the shard's page map alone. Returns
  // true (access performed) only when the full checking code would have
  // classified it kInBounds — a live sole-owner page whose owner is p's
  // intended referent and whose extent contains [addr, addr+n) — which is
  // policy-independent, so hits bypass dispatch for every policy including
  // Standard. A false return performed nothing and consumed nothing; the
  // caller falls into the interval-search tiers byte-identically.
  bool TryFastRead(Ptr p, void* dst, size_t n);
  bool TryFastWrite(Ptr p, const void* src, size_t n);
  // The tier-1 decision shared by both: the host bytes of [p, p+n) on a hit
  // (counted in translation_hits), nullptr on a miss (counted in
  // translation_misses, except for degenerate accesses that never try).
  uint8_t* FastPathTarget(Ptr p, size_t n);
  // Batched handling of a whole run of out-of-bounds-above bytes through one
  // live referent (the span clients' OOB tail: AccessCursor's slow branch).
  // Returns n if the run was handled — observably identical to the per-byte
  // loop: per-byte budget charges, translation misses, one single-byte error
  // record per byte, and the policy's batched continuation — or 0 (nothing
  // performed, nothing consumed) when the access is not such a run, the
  // budget is armed, or the resolved policy has no batched form; the caller
  // falls back to the per-byte path byte-identically.
  size_t TryOobRunRead(Ptr p, void* dst, size_t n);
  size_t TryOobRunWrite(Ptr p, const void* src, size_t n);
  CheckResult CheckAccess(Ptr p, size_t n) const;
  // Records one invalid access. `site` is the access's already-derived
  // SiteId when the caller resolved it (the mixed-spec dispatch path, which
  // must log exactly the site it resolved the handler for); kInvalidSite
  // means derive it here.
  void LogError(bool is_write, Ptr p, size_t n, const CheckResult& check,
                SiteId site = kInvalidSite);
  SiteId SiteOf(const CheckResult& check, AccessKind kind) const;

  // The mixed-spec access path: classification in the core, continuation
  // via the site-resolved handler.
  void SiteDispatchRead(Ptr p, void* dst, size_t n);
  void SiteDispatchWrite(Ptr p, const void* src, size_t n);
  // The handler governing free/realloc of p under a mixed spec; fills
  // `check` with the classification it resolved the site from, so error
  // paths can log without a second table search.
  PolicyHandler& ResolveAllocHandler(Ptr p, std::optional<CheckResult>& check);

  std::unique_ptr<Shard> shard_;
  PolicyHandler* handler_ = nullptr;  // fallback handler, owned by the shard's table
  bool uniform_ = true;
};

}  // namespace fob

#endif  // SRC_RUNTIME_MEMORY_H_
