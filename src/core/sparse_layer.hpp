#pragma once

// One event-major table for a memory-bound direct layer.
//
// A direct layer's dense tables hold one double per catalog event per ELT,
// nearly all of them zero (the paper's "highly sparse" direct access
// table). While they fit in cache a guarded gather per ELT is the fastest
// lookup there is. Once a layer's tables outgrow the cache, every gather
// misses, and a 15-ELT layer on a 2M-event catalog reads 240 MB to find
// ~1% non-zero cells. SparseLayerTable stores only those cells, fused
// across the layer's ELTs and grouped by event:
//
//   - a presence bitmap over the layer's largest universe, with the rank
//     of each 64-bit word stored next to it (one cache line answers "is
//     this event in any ELT, and which row is it");
//   - CSR rows, one per present event, holding that event's ELT losses
//     in ELT order, each already through its ELT's FinancialTerms (the
//     table is built per kernel launch, when the terms are fixed, so the
//     hot loop only adds).
//
// combine() is bit-identical to the dense fold of the reference
// arithmetic: FinancialTerms::apply(0.0) is +0.0 for every valid term, and
// adding a +0.0 summand changes nothing but the sign of an all-zero sum. So
// an absent event is +0.0, a row holding every ELT folds from its first
// term, and a shorter row folds from +0.0 (which turns a -0.0 sum into
// +0.0, exactly as the dense fold's absent +0.0 summands do).
//
// All code lives in sparse_layer.cpp, part of the `are` library: the
// per-extension kernel TUs only call it, so there is one copy of it in the
// binary whatever the kernel's lane width.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "catalog/types.hpp"
#include "core/layer.hpp"
#include "financial/terms.hpp"

namespace are::core {

/// Dense direct-table bytes of one layer above which the kernel runs that
/// layer from a SparseLayerTable instead of gathering from every ELT's
/// dense array. Below it the tables stay in cache and wide gathers win:
/// the sparse table on the out-of-core benchmark's ~800 KB layers cost
/// 35%. Far above it every gather misses: the batch benchmark's 240 MB
/// layer ran ~15x faster sparse. 6 MB is where wide gathers were measured
/// to stop paying (between ~5 MB and ~24 MB on Skylake-class parts).
inline constexpr std::size_t kWideLaneFootprintBytes = std::size_t{6} << 20;

class SparseLayerTable {
 public:
  /// Whether the kernel should run `layer` from a SparseLayerTable: an
  /// all-direct layer whose dense tables (universe x 8 B per ELT) total
  /// more than kWideLaneFootprintBytes.
  static bool wanted(const Layer& layer) noexcept;

  /// Builds the table from an all-direct layer (Layer::all_direct_access();
  /// throws std::invalid_argument otherwise).
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

  std::size_t universe_ = 0;
  std::size_t num_elts_ = 0;
  std::vector<Word> words_;
  std::vector<std::uint32_t> row_begin_;  // one offset into values_ per row, plus the end
  std::vector<double> values_;            // FinancialTerms::apply(loss), rows in ELT order
};

}  // namespace are::core
