// Flat simulated address space over one host reservation.
//
// Every byte a "compiled" program can touch lives in an AddressSpace: the
// heap, the call stack and global storage are all carved out of one of these.
// A space covers one fixed window [base, base+size) of simulated addresses,
// backed by a single host reservation (mmap with MAP_NORESERVE). The kernel
// zero-fills each host page on first touch, so mapping a 16 MiB heap costs a
// bitmap update, not 16 MiB of memset. Translation is host_base + (addr -
// base); a per-page "mapped" bitmap decides which 4 KiB pages exist. Reads
// and writes report (rather than throw on) unmapped access so the policy
// layer (src/runtime/memory.h) can decide whether that is a simulated SIGSEGV
// (Standard compilation) or something the checker already intercepted.
//
// Addresses outside the window are never mappable. The window must start at
// or above kNullGuardSize, so null pointer dereferences and small
// null-plus-offset dereferences fault like they do on a real OS.
//
// In AddressSanitizer builds every unmapped page of the reservation is
// poisoned, so a host memcpy that runs off a mapped page into a guard page
// is reported even though it stays inside the reservation.

#ifndef SRC_SOFTMEM_ADDRESS_SPACE_H_
#define SRC_SOFTMEM_ADDRESS_SPACE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace fob {

// A simulated virtual address.
using Addr = uint64_t;

inline constexpr size_t kPageSize = 4096;
// [0, kNullGuardSize) is permanently unmapped.
inline constexpr Addr kNullGuardSize = 0x10000;

// Base address of the page containing addr.
inline constexpr Addr PageBaseOf(Addr addr) {
  return addr & ~static_cast<Addr>(kPageSize - 1);
}

// size rounded up to whole pages.
inline constexpr size_t PageRoundUp(size_t size) {
  return (size + kPageSize - 1) & ~(kPageSize - 1);
}

class AddressSpace {
 public:
  // Reserves the window [base, base + size), rounded up to whole pages;
  // nothing is mapped yet. base must be page aligned and at or above
  // kNullGuardSize. Throws std::bad_alloc if the host refuses the
  // reservation.
  AddressSpace(Addr base, size_t size);
  ~AddressSpace();
  AddressSpace(const AddressSpace&) = delete;
  AddressSpace& operator=(const AddressSpace&) = delete;

  // Maps all pages overlapping [base, base+size). New pages read as zero.
  // Mapping an already-mapped page is a no-op (contents preserved). Pages
  // outside the window are ignored.
  void Map(Addr base, size_t size);

  // Unmaps all pages fully contained in [base, base+size). Their host pages
  // go back to the kernel (madvise MADV_DONTNEED), so a later Map of the
  // same page reads zeros again.
  void Unmap(Addr base, size_t size);

  // True iff every byte of [addr, addr+size) is mapped.
  bool IsMapped(Addr addr, size_t size) const;

  // Copies n bytes out of / into simulated memory. Returns false (and in the
  // read case leaves dst unspecified) if any byte of the range is unmapped;
  // a failed write may have written a mapped prefix, matching the byte-at-a-
  // time behaviour of a real fault.
  [[nodiscard]] bool Read(Addr addr, void* dst, size_t n) const;
  [[nodiscard]] bool Write(Addr addr, const void* src, size_t n);

  // memset over simulated memory; same unmapped semantics as Write.
  [[nodiscard]] bool Fill(Addr addr, uint8_t value, size_t n);

  // Host address of [addr, addr+n) if every byte of it is mapped (n == 0
  // counts as one byte), else nullptr. Contiguous across pages.
  uint8_t* Translate(Addr addr, size_t n) const {
    size_t len = n == 0 ? 1 : n;
    return MappedPrefix(addr, len) == len ? host_ + (addr - base_) : nullptr;
  }

  Addr base() const { return base_; }
  Addr end() const { return base_ + size_; }
  size_t mapped_bytes() const { return mapped_pages_ * kPageSize; }
  size_t page_count() const { return mapped_pages_; }

 private:
  bool PageMapped(size_t page) const { return (mapped_[page / 64] >> (page % 64)) & 1; }
  // How many bytes of [addr, addr+n) are mapped, counted from addr up to the
  // first unmapped page. n > 0.
  size_t MappedPrefix(Addr addr, size_t n) const {
    size_t offset = static_cast<size_t>(addr - base_);  // wraps below base_
    if (offset >= size_) {
      return 0;
    }
    size_t limit = n < size_ - offset ? n : size_ - offset;
    size_t first = offset / kPageSize;
    size_t last = (offset + limit - 1) / kPageSize;
    for (size_t page = first; page <= last; ++page) {
      if (!PageMapped(page)) {
        return page == first ? 0 : page * kPageSize - offset;
      }
    }
    return limit;
  }

  Addr base_;
  size_t size_;
  uint8_t* host_;
  std::vector<uint64_t> mapped_;  // one bit per page of the window
  size_t mapped_pages_ = 0;
};

}  // namespace fob

#endif  // SRC_SOFTMEM_ADDRESS_SPACE_H_
