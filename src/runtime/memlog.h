// Memory-error log (§3).
//
// "To help make the errors more apparent, our compiler can optionally
//  augment the generated code to produce a log containing information about
//  the program's attempts to commit memory errors."
//
// The log keeps bounded per-error records plus exact aggregate counters, and
// can echo entries to a stream as they happen. The stability experiments
// read the counters; the examples echo the stream.
//
// The records live in a fixed-capacity ring of the most recent `capacity`
// errors (Memory::Config::log_capacity), with an overflow counter for
// evictions, so multi-attack streams that commit thousands of errors cannot
// grow a worker's log without bound. Recording is allocation-free in steady
// state: Record takes the names as views and copies them into the oldest
// slot's strings in place, reusing their buffers, and the per-unit and
// per-site aggregates are reached through a memo of the last site's map
// nodes, so a run of errors at one site walks no map. The ring grows lazily
// up to `capacity` — nothing is reserved at construction, so an idle shard's
// log costs nothing.
//
// Per-shard logs merge deterministically: MemLog::Merge folds another log's
// aggregates and ring into this one, and callers (Frontend::MergedLog, the
// harness's RunFrontendExperiment) merge in ascending shard-id order, so
// the merged view of a parallel run is identical no matter how the worker
// threads interleaved.

#ifndef SRC_RUNTIME_MEMLOG_H_
#define SRC_RUNTIME_MEMLOG_H_

#include <cstdint>
#include <functional>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/runtime/boundless_paged.h"
#include "src/runtime/policy_spec.h"
#include "src/softmem/address_space.h"
#include "src/softmem/object_table.h"
#include "src/softmem/oob_registry.h"

namespace fob {

struct MemErrorRecord {
  bool is_write = false;
  Addr addr = 0;
  size_t size = 0;
  UnitId unit = kInvalidUnit;
  std::string unit_name;
  PointerStatus status = PointerStatus::kInBounds;
  std::string function;  // innermost simulated stack frame
  uint64_t access_index = 0;
  // Stable error-site identity: MakeSiteId(unit_name, function, kind).
  SiteId site = kInvalidSite;

  std::string ToString() const;
};

// Per-site error statistics. Unlike the bounded `recent()` ring, the site
// index is unbounded (distinct sites are few even when errors are many), so
// a baseline run's full error-site set survives for the search-space sweep
// to enumerate over.
struct MemSiteStat {
  SiteId site = kInvalidSite;
  std::string unit_name;
  std::string function;
  bool is_write = false;
  uint64_t count = 0;

  // Human-readable site label, e.g. "write capture_offsets @ try_rewrite".
  std::string Label() const;
};

class MemLog {
 public:
  static constexpr size_t kDefaultCapacity = 256;

  explicit MemLog(size_t capacity = kDefaultCapacity) : capacity_(capacity) {}

  // Records one error. The hot path (Memory::LogError) passes the names as
  // views into the shard's object table and stack; they are copied into a
  // ring slot, never retained.
  void Record(bool is_write, Addr addr, size_t size, UnitId unit, std::string_view unit_name,
              PointerStatus status, std::string_view function, uint64_t access_index,
              SiteId site);
  void Record(const MemErrorRecord& record) {
    Record(record.is_write, record.addr, record.size, record.unit, record.unit_name,
           record.status, record.function, record.access_index, record.site);
  }

  uint64_t total_errors() const { return total_; }
  uint64_t read_errors() const { return read_errors_; }
  uint64_t write_errors() const { return write_errors_; }
  // Errors per data-unit name, e.g. "prescan::buf" -> 37.
  const std::map<std::string, uint64_t, std::less<>>& errors_by_unit() const { return by_unit_; }
  // Errors per site id (exact: one entry per distinct site, never evicted,
  // so aggregation survives the ring bound; see MemSiteStat).
  const std::map<SiteId, MemSiteStat>& sites() const { return sites_; }
  // A copy of the ring's records, oldest first (at most capacity() of them).
  std::vector<MemErrorRecord> recent() const;
  // Records evicted from the bounded ring (recorded-but-no-longer-stored);
  // total_errors() == recent().size() + dropped() for an unmerged log.
  uint64_t dropped() const { return dropped_; }
  size_t capacity() const { return capacity_; }

  // Page-map fast-path resolution stats (Shard::translation_hits/_misses),
  // folded in at merge points so a merged log carries the whole pool's
  // translation profile alongside its error profile.
  void AddTranslationStats(uint64_t hits, uint64_t misses) {
    translation_hits_ += hits;
    translation_misses_ += misses;
  }
  uint64_t translation_hits() const { return translation_hits_; }
  uint64_t translation_misses() const { return translation_misses_; }

  // Boundless-store accounting (PagedBoundlessStore::stats()), folded in at
  // the same merge points as the translation counters. Gauges and cumulative
  // counters alike sum across shards, so a merged log's Summary shows the
  // pool-wide OOB storage profile.
  void AddBoundlessStats(const BoundlessStoreStats& stats) {
    boundless_.pages_live += stats.pages_live;
    boundless_.zero_pages_live += stats.zero_pages_live;
    boundless_.compressed_pages += stats.compressed_pages;
    boundless_.bytes_materialized += stats.bytes_materialized;
    boundless_.pages_evicted += stats.pages_evicted;
    boundless_.zero_dedup_hits += stats.zero_dedup_hits;
  }
  const BoundlessStoreStats& boundless_stats() const { return boundless_; }

  // Frontend scheduler accounting (Frontend::Stats), folded in at the same
  // merge points: requests shed at the overload watermark, whole batches
  // reassigned by the steal plan, and the high-water per-lane queue depth.
  // Shed/stolen counters sum; peak depth takes the max, so a merged log
  // reports the worst backlog any lane saw anywhere in the pool.
  void AddSchedulerStats(uint64_t shed, uint64_t stolen_batches, uint64_t peak_lane_depth) {
    shed_requests_ += shed;
    stolen_batches_ += stolen_batches;
    if (peak_lane_depth > peak_lane_depth_) {
      peak_lane_depth_ = peak_lane_depth;
    }
  }
  uint64_t shed_requests() const { return shed_requests_; }
  uint64_t stolen_batches() const { return stolen_batches_; }
  uint64_t peak_lane_depth() const { return peak_lane_depth_; }

  // Folds another shard's log into this one: aggregate counters and per-site
  // stats sum exactly; the other ring's records append in their original
  // order (evicting, and counting, the oldest beyond capacity). Merging
  // shards in ascending shard-id order is the repo's canonical deterministic
  // merge rule (see src/net/README.md).
  void Merge(const MemLog& other);

  // When set, every record is also printed to the stream as it happens.
  void set_echo(std::ostream* stream) { echo_ = stream; }

  // Administrator-facing digest: totals plus the per-buffer histogram,
  // worst offenders first. This is what the paper imagines an operator
  // reading to "detect and respond appropriately to the presence of such
  // errors" (§3).
  std::string Summary() const;

  void Clear();

 private:
  // The last aggregate entries Record touched: pointers to nodes of this
  // log's own by_unit_ and sites_ maps (std::map nodes never move). A memo
  // must never outlive or leave its maps, so copying or moving a MemoSlot
  // yields an empty one and a moved-from MemoSlot is emptied too; the
  // defaulted MemLog copy/move operations therefore drop it on both sides.
  struct MemoSlot {
    MemoSlot() = default;
    MemoSlot(const MemoSlot&) noexcept {}
    MemoSlot(MemoSlot&& other) noexcept { other.Reset(); }
    MemoSlot& operator=(const MemoSlot&) noexcept {
      Reset();
      return *this;
    }
    MemoSlot& operator=(MemoSlot&& other) noexcept {
      Reset();
      other.Reset();
      return *this;
    }
    void Reset() {
      unit = nullptr;
      site = nullptr;
    }

    std::pair<const std::string, uint64_t>* unit = nullptr;
    MemSiteStat* site = nullptr;
  };

  // The slot the next record goes into: a fresh one while the ring is
  // below capacity, else the oldest, which is evicted (and counted).
  // nullptr when capacity is 0: every record is dropped.
  MemErrorRecord* NextSlot();
  void CountUnit(std::string_view unit_name);
  MemSiteStat& SiteStat(SiteId site);

  size_t capacity_;
  // The ring: grows by push_back up to capacity_, then wraps; head_ is the
  // oldest slot once full (0 before).
  std::vector<MemErrorRecord> ring_;
  size_t head_ = 0;
  MemoSlot memo_;
  uint64_t total_ = 0;
  uint64_t read_errors_ = 0;
  uint64_t write_errors_ = 0;
  uint64_t dropped_ = 0;
  uint64_t translation_hits_ = 0;
  uint64_t translation_misses_ = 0;
  BoundlessStoreStats boundless_;
  uint64_t shed_requests_ = 0;
  uint64_t stolen_batches_ = 0;
  uint64_t peak_lane_depth_ = 0;
  std::map<std::string, uint64_t, std::less<>> by_unit_;
  std::map<SiteId, MemSiteStat> sites_;
  std::ostream* echo_ = nullptr;
};

}  // namespace fob

#endif  // SRC_RUNTIME_MEMLOG_H_
