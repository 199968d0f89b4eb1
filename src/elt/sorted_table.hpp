#pragma once

#include <vector>

#include "elt/lookup.hpp"

namespace are::elt {

/// Compact representation the paper argues against: events sorted by id,
/// lookup by binary search. O(log n) random memory accesses per lookup —
/// each a dependent cache miss at catastrophe-model ELT sizes.
/// Structure-of-arrays layout keeps the key probe sequence dense.
class SortedTable final : public ILossLookup {
 public:
  SortedTable(const EventLossTable& table, std::size_t catalog_size);

  double lookup(EventId event) const noexcept override {
    std::size_t lo = 0;
    std::size_t hi = events_.size();
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (events_[mid] < event) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return (lo < events_.size() && events_[lo] == event) ? losses_[lo] : 0.0;
  }

  /// Batch path: a group of binary searches advanced in lockstep, one level
  /// per pass, with every query's next probe element prefetched before any
  /// compare — the log(n) dependent misses of one search overlap across the
  /// group instead of serialising. Identical lo/hi updates to lookup().
  void lookup_many(const EventId* events, std::size_t count, double* out) const noexcept override;

  void for_each_entry(const EntryVisitor& visit) const override;

  std::size_t memory_bytes() const noexcept override {
    return events_.size() * sizeof(EventId) + losses_.size() * sizeof(double);
  }

  LookupKind kind() const noexcept override { return LookupKind::kSortedVector; }
  std::size_t entry_count() const noexcept override { return events_.size(); }

 private:
  std::vector<EventId> events_;
  std::vector<double> losses_;
};

}  // namespace are::elt
