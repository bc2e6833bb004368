#include "src/runtime/memlog.h"

#include <algorithm>
#include <cstddef>
#include <optional>
#include <sstream>

namespace fob {

std::string MemErrorRecord::ToString() const {
  std::ostringstream os;
  os << "memory error: invalid " << (is_write ? "write" : "read") << " of " << size << " byte"
     << (size == 1 ? "" : "s") << " at 0x" << std::hex << addr << std::dec << " ["
     << PointerStatusName(status) << "]";
  if (!unit_name.empty()) {
    os << " referent '" << unit_name << "'";
  }
  if (!function.empty()) {
    os << " in " << function;
  }
  os << " (access #" << access_index << ")";
  return os.str();
}

std::string MemSiteStat::Label() const {
  std::ostringstream os;
  os << (is_write ? "write " : "read ") << (unit_name.empty() ? "<wild>" : unit_name);
  if (!function.empty()) {
    os << " @ " << function;
  }
  return os.str();
}

namespace {
// Overwrites a warm slot's name in place. A run of errors at one site
// rewrites names of the same length, which skips assign's general
// replace logic; a slot's buffer only ever grows, so no case allocates
// once the slot has held its longest name.
void CopyName(std::string& dst, std::string_view src) {
  if (dst.size() == src.size()) {
    std::char_traits<char>::copy(dst.data(), src.data(), src.size());
  } else {
    dst.assign(src);
  }
}
}  // namespace

MemErrorRecord* MemLog::NextSlot() {
  if (ring_.size() < capacity_) {
    // Geometric growth, capped so the ring never holds more than capacity_.
    if (ring_.size() == ring_.capacity()) {
      ring_.reserve(std::min(capacity_, std::max<size_t>(8, 2 * ring_.size())));
    }
    return &ring_.emplace_back();
  }
  ++dropped_;
  if (capacity_ == 0) {
    return nullptr;
  }
  MemErrorRecord* oldest = &ring_[head_];
  head_ = head_ + 1 == capacity_ ? 0 : head_ + 1;
  return oldest;
}

void MemLog::CountUnit(std::string_view unit_name) {
  if (memo_.unit == nullptr || memo_.unit->first != unit_name) {
    auto it = by_unit_.find(unit_name);
    if (it == by_unit_.end()) {
      it = by_unit_.emplace(std::string(unit_name), 0).first;
    }
    memo_.unit = &*it;
  }
  ++memo_.unit->second;
}

MemSiteStat& MemLog::SiteStat(SiteId site) {
  if (memo_.site == nullptr || memo_.site->site != site) {
    memo_.site = &sites_[site];
    memo_.site->site = site;
  }
  return *memo_.site;
}

void MemLog::Record(bool is_write, Addr addr, size_t size, UnitId unit, std::string_view unit_name,
                    PointerStatus status, std::string_view function, uint64_t access_index,
                    SiteId site) {
  ++total_;
  if (is_write) {
    ++write_errors_;
  } else {
    ++read_errors_;
  }
  if (!unit_name.empty()) {
    CountUnit(unit_name);
  }
  if (site != kInvalidSite) {
    MemSiteStat& stat = SiteStat(site);
    if (stat.count == 0) {
      stat.unit_name.assign(unit_name);
      stat.function.assign(function);
      stat.is_write = is_write;
    }
    ++stat.count;
  }
  MemErrorRecord* slot = NextSlot();
  std::optional<MemErrorRecord> unstored;
  if (slot == nullptr) {
    if (echo_ == nullptr) {
      return;
    }
    slot = &unstored.emplace();
  }
  slot->is_write = is_write;
  slot->addr = addr;
  slot->size = size;
  slot->unit = unit;
  CopyName(slot->unit_name, unit_name);
  slot->status = status;
  CopyName(slot->function, function);
  slot->access_index = access_index;
  slot->site = site;
  if (echo_ != nullptr) {
    *echo_ << slot->ToString() << "\n";
  }
}

std::vector<MemErrorRecord> MemLog::recent() const {
  auto oldest = ring_.begin() + static_cast<ptrdiff_t>(ring_.size() == capacity_ ? head_ : 0);
  std::vector<MemErrorRecord> oldest_first(oldest, ring_.end());
  oldest_first.insert(oldest_first.end(), ring_.begin(), oldest);
  return oldest_first;
}

void MemLog::Merge(const MemLog& other) {
  memo_.Reset();
  total_ += other.total_;
  read_errors_ += other.read_errors_;
  write_errors_ += other.write_errors_;
  dropped_ += other.dropped_;
  translation_hits_ += other.translation_hits_;
  translation_misses_ += other.translation_misses_;
  AddBoundlessStats(other.boundless_);
  AddSchedulerStats(other.shed_requests_, other.stolen_batches_, other.peak_lane_depth_);
  for (const auto& [name, count] : other.by_unit_) {
    by_unit_[name] += count;
  }
  for (const auto& [site, stat] : other.sites_) {
    MemSiteStat& mine = sites_[site];
    if (mine.count == 0) {
      mine.site = stat.site;
      mine.unit_name = stat.unit_name;
      mine.function = stat.function;
      mine.is_write = stat.is_write;
    }
    mine.count += stat.count;
  }
  for (const MemErrorRecord& record : other.recent()) {
    if (MemErrorRecord* slot = NextSlot()) {
      *slot = record;
    }
  }
}

std::string MemLog::Summary() const {
  std::ostringstream os;
  os << "memory-error log: " << total_ << " total (" << write_errors_ << " writes, "
     << read_errors_ << " reads)\n";
  if (translation_hits_ + translation_misses_ > 0) {
    os << "  page-map fast path: " << translation_hits_ << " hits, " << translation_misses_
       << " misses\n";
  }
  if (boundless_.any()) {
    os << "  boundless store: " << boundless_.pages_live << " pages live ("
       << boundless_.zero_pages_live << " zero-dedup, " << boundless_.compressed_pages
       << " compressed), " << boundless_.bytes_materialized << " bytes materialized, "
       << boundless_.pages_evicted << " pages evicted, " << boundless_.zero_dedup_hits
       << " zero-dedup hits\n";
  }
  if (shed_requests_ + stolen_batches_ + peak_lane_depth_ > 0) {
    os << "  scheduler: " << shed_requests_ << " requests shed, " << stolen_batches_
       << " batches stolen, peak lane depth " << peak_lane_depth_ << "\n";
  }
  if (dropped_ > 0) {
    os << "  detail ring capped at " << capacity_ << ": " << dropped_
       << " older records evicted (aggregates exact)\n";
  }
  // Sort units by error count, descending.
  std::vector<std::pair<std::string, uint64_t>> units(by_unit_.begin(), by_unit_.end());
  std::sort(units.begin(), units.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  for (const auto& [name, count] : units) {
    os << "  " << count << "x  " << name << "\n";
  }
  return os.str();
}

void MemLog::Clear() {
  memo_.Reset();
  ring_.clear();
  head_ = 0;
  total_ = read_errors_ = write_errors_ = dropped_ = 0;
  translation_hits_ = translation_misses_ = 0;
  boundless_ = BoundlessStoreStats{};
  shed_requests_ = stolen_batches_ = peak_lane_depth_ = 0;
  by_unit_.clear();
  sites_.clear();
}

}  // namespace fob
