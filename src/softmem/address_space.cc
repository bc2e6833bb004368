#include "src/softmem/address_space.h"

#include <sanitizer/asan_interface.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <cstring>
#include <new>

namespace fob {

AddressSpace::AddressSpace(Addr base, size_t size)
    : base_(base), size_(PageRoundUp(size)), mapped_((size_ / kPageSize + 63) / 64, 0) {
  assert(base % kPageSize == 0 && base >= kNullGuardSize && size_ > 0);
  void* host = mmap(nullptr, size_, PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (host == MAP_FAILED) {
    throw std::bad_alloc();
  }
  host_ = static_cast<uint8_t*>(host);
  // Keep first touch at 4 KiB: a transparent huge page would zero 2 MiB of
  // simulated memory for one byte.
  madvise(host_, size_, MADV_NOHUGEPAGE);
  ASAN_POISON_MEMORY_REGION(host_, size_);
}

AddressSpace::~AddressSpace() {
  // Shadow memory outlives the mapping; leave it clean for the next user of
  // this host range.
  ASAN_UNPOISON_MEMORY_REGION(host_, size_);
  munmap(host_, size_);
}

void AddressSpace::Map(Addr base, size_t size) {
  if (size == 0) {
    return;
  }
  Addr first = std::max(PageBaseOf(base), base_);
  Addr last = std::min(PageBaseOf(base + size - 1), end() - kPageSize);
  if (first > last) {
    return;
  }
  for (size_t page = (first - base_) / kPageSize; page <= (last - base_) / kPageSize; ++page) {
    if (!PageMapped(page)) {
      mapped_[page / 64] |= uint64_t{1} << (page % 64);
      ++mapped_pages_;
    }
  }
  ASAN_UNPOISON_MEMORY_REGION(host_ + (first - base_), last - first + kPageSize);
}

void AddressSpace::Unmap(Addr base, size_t size) {
  // Only pages fully inside the range.
  Addr first = std::max(PageBaseOf(base + kPageSize - 1), base_);
  Addr limit = std::min(PageBaseOf(base + size), end());
  if (first >= limit) {
    return;
  }
  for (size_t page = (first - base_) / kPageSize; page < (limit - base_) / kPageSize; ++page) {
    if (PageMapped(page)) {
      mapped_[page / 64] &= ~(uint64_t{1} << (page % 64));
      --mapped_pages_;
    }
  }
  // Hand the host pages back to the kernel so they read as zeros when
  // mapped again. Where host pages are larger than kPageSize that would drop
  // neighbouring pages too, so there the range is cleared by hand.
  uint8_t* host = host_ + (first - base_);
  size_t bytes = limit - first;
  if (sysconf(_SC_PAGESIZE) != static_cast<long>(kPageSize) ||
      madvise(host, bytes, MADV_DONTNEED) != 0) {
    ASAN_UNPOISON_MEMORY_REGION(host, bytes);
    std::memset(host, 0, bytes);
  }
  ASAN_POISON_MEMORY_REGION(host, bytes);
}

bool AddressSpace::IsMapped(Addr addr, size_t size) const {
  return Translate(addr, size) != nullptr;
}

bool AddressSpace::Read(Addr addr, void* dst, size_t n) const {
  if (n == 0) {
    return true;
  }
  const uint8_t* host = Translate(addr, n);
  if (host == nullptr) {
    return false;
  }
  std::memcpy(dst, host, n);
  return true;
}

bool AddressSpace::Write(Addr addr, const void* src, size_t n) {
  if (n == 0) {
    return true;
  }
  size_t mapped = MappedPrefix(addr, n);
  if (mapped > 0) {
    std::memcpy(host_ + (addr - base_), src, mapped);
  }
  return mapped == n;
}

bool AddressSpace::Fill(Addr addr, uint8_t value, size_t n) {
  if (n == 0) {
    return true;
  }
  size_t mapped = MappedPrefix(addr, n);
  if (mapped > 0) {
    std::memset(host_ + (addr - base_), value, mapped);
  }
  return mapped == n;
}

}  // namespace fob
