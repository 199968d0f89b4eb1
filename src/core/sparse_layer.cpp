#include "core/sparse_layer.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <stdexcept>
#include <utility>

#include "elt/direct_access_table.hpp"
#include "simd/prefetch.hpp"

namespace are::core {

bool SparseLayerTable::wanted(const Layer& layer) noexcept {
  if (!layer.all_direct_access()) return false;
  std::size_t bytes = 0;
  for (const LayerElt& layer_elt : layer.elts) {
    bytes += layer_elt.lookup->as_direct_access()->universe() * sizeof(double);
  }
  return bytes > kWideLaneFootprintBytes;
}

SparseLayerTable::SparseLayerTable(const Layer& layer) {
  if (!layer.all_direct_access()) {
    throw std::invalid_argument("sparse layer table: every ELT must be a direct access table");
  }
  num_elts_ = layer.elts.size();
  std::vector<const elt::DirectAccessTable*> tables;
  tables.reserve(num_elts_);
  for (const LayerElt& layer_elt : layer.elts) {
    tables.push_back(layer_elt.lookup->as_direct_access());
    universe_ = std::max(universe_, tables.back()->universe());
  }

  // Pass 1: presence bits, then each word's rank.
  words_.assign((universe_ + 63) / 64, Word{0, 0});
  std::size_t pairs = 0;
  for (const elt::DirectAccessTable* table : tables) {
    for (const catalog::EventId event : table->present_events()) {
      words_[event >> 6].bits |= std::uint64_t{1} << (event & 63);
    }
    pairs += table->present_events().size();
  }
  if (pairs > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("sparse layer table: more than 2^32 ELT entries in one layer");
  }
  std::uint64_t present = 0;
  for (Word& word : words_) {
    word.rank = present;
    present += static_cast<std::uint64_t>(std::popcount(word.bits));
  }
  const auto row_of = [&](catalog::EventId event) {
    const Word& word = words_[event >> 6];
    const std::uint64_t below = (std::uint64_t{1} << (event & 63)) - 1;
    return static_cast<std::size_t>(word.rank) +
           static_cast<std::size_t>(std::popcount(word.bits & below));
  };

  // Pass 2: row lengths, counted one slot ahead (in row_begin_[row + 1])
  // and turned into row starts in place, so row_begin_[row + 1] can serve
  // as the row's fill cursor in pass 3 and ends up holding its end.
  row_begin_.assign(static_cast<std::size_t>(present) + 1, 0);
  for (const elt::DirectAccessTable* table : tables) {
    for (const catalog::EventId event : table->present_events()) ++row_begin_[row_of(event) + 1];
  }
  std::uint32_t start = 0;
  for (std::size_t slot = 1; slot < row_begin_.size(); ++slot) {
    start += std::exchange(row_begin_[slot], start);
  }
  // Pass 3: scatter each ELT's entries through its financial terms. ELTs
  // are visited in layer order, so every row ends up in ELT order — the
  // order the dense fold sums in.
  values_.resize(pairs);
  for (std::size_t e = 0; e < tables.size(); ++e) {
    const double* losses = tables[e]->data();
    const financial::FinancialTerms& terms = layer.elts[e].terms;
    for (const catalog::EventId event : tables[e]->present_events()) {
      values_[row_begin_[row_of(event) + 1]++] = terms.apply(losses[event]);
    }
  }
}

SparseLayerTable::~SparseLayerTable() = default;

void SparseLayerTable::combine(const catalog::EventId* events, std::size_t count,
                               double* combined) const noexcept {
  constexpr std::size_t kLookahead = 16;
  const Word* words = words_.data();
  const std::uint32_t* row_begin = row_begin_.data();
  const double* values = values_.data();
  for (std::size_t i = 0; i < count; ++i) {
    if (i + kLookahead < count) {
      const catalog::EventId ahead = events[i + kLookahead];
      if (ahead < universe_) simd::prefetch_read(words + (ahead >> 6));
    }
    const catalog::EventId event = events[i];
    double sum = 0.0;
    if (event < universe_) {
      const Word& word = words[event >> 6];
      const std::uint64_t bit = std::uint64_t{1} << (event & 63);
      if ((word.bits & bit) != 0) {
        const std::size_t row = static_cast<std::size_t>(word.rank) +
                                static_cast<std::size_t>(std::popcount(word.bits & (bit - 1)));
        const double* value = values + row_begin[row];
        const double* const end = values + row_begin[row + 1];
        // A full row has no absent (+0.0) summand: fold from its first term
        // so an all-(-0.0) sum keeps its sign, as the dense fold does.
        if (static_cast<std::size_t>(end - value) == num_elts_) sum = *value++;
        for (; value != end; ++value) sum += *value;
      }
    }
    combined[i] = sum;
  }
}

}  // namespace are::core
