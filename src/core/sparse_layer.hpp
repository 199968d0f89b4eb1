#pragma once

// One pre-folded, event-major table per layer.
//
// The kernel combines each event's losses across a layer's ELTs. Looking
// every ELT up per event costs one lookup per ELT: a probe chain in the
// compact representations, and a cache miss per ELT once dense direct
// tables outgrow the cache (a 15-ELT layer on a 2M-event catalog reads
// 240 MB to find ~1% non-zero cells). SparseLayerTable folds the layer
// once per kernel launch, when the ELT financial terms are fixed, into:
//
//   - a presence bitmap over the layer's stored events, with the rank of
//     each 64-bit word stored next to it (one cache line answers "is this
//     event in any ELT, and which row is it");
//   - one value per present event (its row): the event's ELT losses, each
//     through its ELT's FinancialTerms, summed in ELT order.
//
// combine() then costs one bitmap word plus one value load per event,
// whatever the layer's ELT kinds or count. It is bit-identical to the
// dense fold of the reference arithmetic: FinancialTerms::apply(0.0) is
// +0.0 for every valid term, and adding a +0.0 summand changes nothing but
// the sign of an all-zero sum. So an absent event is +0.0, a row holding
// every ELT folds from its first term, and a shorter row folds from +0.0
// (which turns a -0.0 sum into +0.0, exactly as the dense fold's absent
// +0.0 summands do).
//
// The table is built from ILossLookup::for_each_entry, one ELT at a time,
// so every ELT kind and decorator takes it. The kernel keeps one other
// route: a cache-resident all-direct layer gathers from its dense arrays.
//
// Its arrays are mapped pages (mmap/munmap), not malloc. A service builds
// a table per cold quote on whichever thread runs the quote, and malloc
// would keep each freed table in that thread's arena: every thread that
// ever ran a cold quote would hold a table's worth of resident pages.
//
// All code lives in sparse_layer.cpp, part of the `are` library: the
// per-extension kernel TUs only call it, so there is one copy of it in the
// binary whatever the kernel's lane width.

#include <cstddef>
#include <cstdint>
#include <memory>

#include "catalog/types.hpp"
#include "core/layer.hpp"

namespace are::core {

/// Dense direct-table bytes of one all-direct layer up to which the kernel
/// gathers from every ELT's dense array instead of running the layer from
/// a SparseLayerTable. Below it the tables stay in cache and wide gathers
/// win: on layers shaped like the out-of-core benchmark's (2 ELTs, 800 KB)
/// a fused run took ~40% longer from the pre-folded tables, builds
/// included. Far above it every gather misses: the batch benchmark's
/// 240 MB layer ran ~15x faster from the table. 6 MB is where wide gathers
/// were measured to stop paying (between ~5 MB and ~24 MB on Skylake-class
/// parts).
inline constexpr std::size_t kWideLaneFootprintBytes = std::size_t{6} << 20;

class SparseLayerTable {
 public:
  /// Whether the kernel should run `layer` from a SparseLayerTable: every
  /// layer except an all-direct one whose dense tables (universe x 8 B per
  /// ELT) total at most kWideLaneFootprintBytes.
  static bool wanted(const Layer& layer) noexcept;

  /// Folds the layer's ELTs (any kinds) through their financial terms.
  explicit SparseLayerTable(const Layer& layer);
  ~SparseLayerTable();

  SparseLayerTable(const SparseLayerTable&) = delete;
  SparseLayerTable& operator=(const SparseLayerTable&) = delete;

  /// combined[i] = the layer's ELT losses for events[i], each through its
  /// ELT's financial terms, summed in ELT order.
  void combine(const catalog::EventId* events, std::size_t count,
               double* combined) const noexcept;

 private:
  struct Word {
    std::uint64_t bits;  // bit b set = event 64 * word + b is present
    std::uint64_t rank;  // present events in all earlier words
  };

  /// Frees a mapped array.
  struct Unmap {
    std::size_t bytes;  // 0 in a default-constructed (null) Mapped
    void operator()(void* pages) const noexcept;
  };
  template <typename T>
  using Mapped = std::unique_ptr<T[], Unmap>;

  /// `count` zero-filled elements on fresh pages (null when count is 0).
  template <typename T>
  static Mapped<T> map_zeroed(std::size_t count);

  std::size_t num_words_ = 0;
  Mapped<Word> words_;
  Mapped<double> values_;  // one folded loss per present event, in event order
};

}  // namespace are::core
