#pragma once

#include <array>
#include <cstddef>
#include <functional>
#include <memory>
#include <span>
#include <string_view>

#include "elt/event_loss_table.hpp"

namespace are::elt {

/// The representations evaluated in the paper's design discussion
/// (§III-B): the direct access table it selects, and the compact
/// alternatives it argues against (sorted + binary search, classic hashing,
/// cuckoo hashing). `bench_ablation_elt_structures` measures the trade-off.
enum class LookupKind {
  kDirectAccess = 0,
  kSortedVector,
  kRobinHood,
  kCuckoo,
  /// Paged direct access: two accesses per lookup, memory proportional to
  /// touched pages — a midpoint the paper's design study motivates but
  /// does not evaluate.
  kPagedDirect,
};

constexpr std::string_view to_string(LookupKind kind) noexcept {
  switch (kind) {
    case LookupKind::kDirectAccess: return "direct_access";
    case LookupKind::kSortedVector: return "sorted_vector";
    case LookupKind::kRobinHood: return "robin_hood";
    case LookupKind::kCuckoo: return "cuckoo";
    case LookupKind::kPagedDirect: return "paged_direct";
  }
  return "unknown";
}

class DirectAccessTable;

/// Receives one batch of a table's entries (ILossLookup::for_each_entry).
using EntryVisitor = std::function<void(std::span<const EventLoss>)>;

/// Stages entries on the stack and hands them to an EntryVisitor a batch
/// at a time, so a table's entry loop runs without a call per entry (and
/// the loads of a direct table's losses overlap).
class EntryBatcher {
 public:
  explicit EntryBatcher(const EntryVisitor& visit) noexcept : visit_(visit) {}

  void add(EventId event, double loss) {
    batch_[size_++] = {event, loss};
    if (size_ == batch_.size()) flush();
  }

  /// Hands over what is staged; call after the last add().
  void flush() {
    if (size_ != 0) visit_({batch_.data(), size_});
    size_ = 0;
  }

 private:
  const EntryVisitor& visit_;
  std::array<EventLoss, 256> batch_;
  std::size_t size_ = 0;
};

/// Type-erased loss lookup. The engines are also templated on the concrete
/// types for zero-overhead dispatch; this interface exists for runtime
/// selection (CLI flags, ablation benches) and tests.
class ILossLookup {
 public:
  virtual ~ILossLookup() = default;

  /// Expected loss for `event`, 0.0 when the event is not in the table.
  virtual double lookup(EventId event) const noexcept = 0;

  /// Batch lookup: out[i] = lookup(events[i]) for i in [0, count) — the
  /// per-representation access the lookup benchmarks measure (the kernel
  /// reads folded tables instead, see for_each_entry). The default simply
  /// loops, and implementations may override with a tighter loop. Must tolerate any event id, including catalog::kInvalidEvent
  /// (batch padding), returning 0.0 for ids not in the table.
  virtual void lookup_many(const EventId* events, std::size_t count,
                           double* out) const noexcept {
    for (std::size_t i = 0; i < count; ++i) out[i] = lookup(events[i]);
  }

  /// Hands every stored event to `visit`, in batches, with exactly the
  /// bits lookup() returns for it and in no particular order. An event it
  /// leaves out must look up as +0.0; a stored +0.0 may be listed or not.
  /// The kernel folds a layer's ELTs into one event-major table from this
  /// (core::SparseLayerTable), streaming, with no copy of the entries.
  virtual void for_each_entry(const EntryVisitor& visit) const = 0;

  /// Resident memory of the structure in bytes (the axis the paper trades
  /// against access count).
  virtual std::size_t memory_bytes() const noexcept = 0;

  virtual LookupKind kind() const noexcept = 0;

  /// Number of non-zero entries.
  virtual std::size_t entry_count() const noexcept = 0;

  /// Non-null iff this object really is a plain DirectAccessTable whose raw
  /// dense array the engines may read directly. Decorators (e.g.
  /// ScaledLookup over a direct table) must return null so the engines
  /// fold them through for_each_entry instead. Safer than trusting kind() for the downcast.
  virtual const DirectAccessTable* as_direct_access() const noexcept { return nullptr; }
};

/// Builds the requested representation from a compact ELT.
/// `catalog_size` bounds the event-id universe; required by the direct
/// access table (it allocates one slot per catalog event) and validated
/// against by all implementations.
std::unique_ptr<ILossLookup> make_lookup(LookupKind kind, const EventLossTable& table,
                                         std::size_t catalog_size);

}  // namespace are::elt
