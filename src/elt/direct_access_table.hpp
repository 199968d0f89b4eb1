#pragma once

#include <vector>

#include "elt/lookup.hpp"

namespace are::elt {

/// The paper's chosen ELT representation: a dense array of losses indexed
/// directly by event id. "Highly sparse ... very fast lookup performance at
/// the cost of high memory usage" — e.g. a 2M-event catalog with a 20K-entry
/// ELT stores 2M doubles of which 1.98M are zero, but every lookup is a
/// single memory access, which matters because aggregate analysis is
/// memory-access bound (78% of time in ELT lookups, Fig 6b).
///
/// That single access only pays while the dense arrays stay in cache. The
/// table therefore also remembers which events it holds (sorted and
/// unique, 4 B per entry), so for_each_entry lists them without scanning
/// the universe: the trial kernel folds a layer whose dense tables total
/// more than core::kWideLaneFootprintBytes into one event-major
/// core::SparseLayerTable, and gathers from the dense arrays only for
/// cache-resident layers.
class DirectAccessTable final : public ILossLookup {
 public:
  DirectAccessTable(const EventLossTable& table, std::size_t catalog_size);

  double lookup(EventId event) const noexcept override {
    // A single dependent load; out-of-universe ids return 0 via the guard.
    return event < losses_.size() ? losses_[event] : 0.0;
  }

  /// Batch path: same guarded loads with the probe target prefetched a few
  /// iterations ahead (the ids are known, only the loads are random).
  void lookup_many(const EventId* events, std::size_t count, double* out) const noexcept override;

  void for_each_entry(const EntryVisitor& visit) const override;

  std::size_t memory_bytes() const noexcept override {
    return losses_.size() * sizeof(double) + present_.size() * sizeof(EventId);
  }

  LookupKind kind() const noexcept override { return LookupKind::kDirectAccess; }
  std::size_t entry_count() const noexcept override { return present_.size(); }
  const DirectAccessTable* as_direct_access() const noexcept override { return this; }

  /// Raw dense view for the chunked/simgpu kernels, which model coalesced
  /// array access explicitly.
  const double* data() const noexcept { return losses_.data(); }
  std::size_t universe() const noexcept { return losses_.size(); }

 private:
  std::vector<double> losses_;
  std::vector<EventId> present_;
};

}  // namespace are::elt
