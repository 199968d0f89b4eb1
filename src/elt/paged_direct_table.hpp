#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "elt/lookup.hpp"

namespace are::elt {

/// Paged direct access table: a midpoint in the paper's trade-off space
/// that the paper does not explore. The event-id universe is split into
/// fixed-size pages; a page table maps page number -> dense loss page, and
/// every page with no entries shares one all-zero page. Lookup is exactly
/// *two* dependent memory accesses (page table, then slot) — one more than
/// the direct access table, log(n)-fewer than binary search — while memory
/// is proportional to the number of *touched* pages rather than the whole
/// catalog.
///
/// For the paper's shapes (20K entries uniform over 2M ids, 512-slot
/// pages) nearly every page is touched, so this degenerates to direct
/// access + page-table overhead; for *clustered* ELTs (regional books whose
/// events share catalog ranges) it saves most of the memory. The ablation
/// bench reports both.
class PagedDirectTable final : public ILossLookup {
 public:
  static constexpr std::uint32_t kPageBits = 9;  // 512 slots = 4 KB pages
  static constexpr std::uint32_t kPageSize = 1u << kPageBits;
  static constexpr std::uint32_t kPageMask = kPageSize - 1;

  PagedDirectTable(const EventLossTable& table, std::size_t catalog_size);

  double lookup(EventId event) const noexcept override {
    const std::uint32_t page = event >> kPageBits;
    if (page >= page_table_.size()) return 0.0;
    return pages_[page_table_[page]][event & kPageMask];
  }

  /// Batch path: the two dependent accesses are split into two passes over
  /// a small block — pass one resolves (and prefetches) every slot address
  /// through the page table, pass two reads the slots.
  void lookup_many(const EventId* events, std::size_t count, double* out) const noexcept override;

  /// Visits the slots of materialised pages whose bits are not +0.0.
  void for_each_entry(const EntryVisitor& visit) const override;

  std::size_t memory_bytes() const noexcept override {
    return page_table_.size() * sizeof(std::uint32_t) +
           pages_.size() * kPageSize * sizeof(double);
  }

  LookupKind kind() const noexcept override { return LookupKind::kPagedDirect; }
  std::size_t entry_count() const noexcept override { return entries_; }

  /// Pages actually materialised (excluding the shared zero page).
  std::size_t touched_pages() const noexcept { return pages_.size() - 1; }
  std::size_t total_pages() const noexcept { return page_table_.size(); }

 private:
  /// pages_[0] is the shared all-zero page.
  std::vector<std::array<double, kPageSize>> pages_;
  std::vector<std::uint32_t> page_table_;
  std::size_t entries_ = 0;
};

}  // namespace are::elt
