#include "core/sparse_layer.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <bit>
#include <new>
#include <span>

#include "elt/direct_access_table.hpp"
#include "simd/prefetch.hpp"

namespace are::core {

void SparseLayerTable::Unmap::operator()(void* pages) const noexcept { ::munmap(pages, bytes); }

template <typename T>
SparseLayerTable::Mapped<T> SparseLayerTable::map_zeroed(std::size_t count) {
  if (count == 0) return {};
  const std::size_t bytes = count * sizeof(T);
  void* pages = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (pages == MAP_FAILED) throw std::bad_alloc();
  return Mapped<T>(static_cast<T*>(pages), Unmap{bytes});
}

bool SparseLayerTable::wanted(const Layer& layer) noexcept {
  if (!layer.all_direct_access()) return true;
  std::size_t bytes = 0;
  for (const LayerElt& layer_elt : layer.elts) {
    bytes += layer_elt.lookup->as_direct_access()->universe() * sizeof(double);
  }
  return bytes > kWideLaneFootprintBytes;
}

SparseLayerTable::SparseLayerTable(const Layer& layer) {
  // Every pass streams one ELT's entries at a time: the build never holds
  // a copy of them.
  catalog::EventId top = 0;
  for (const LayerElt& layer_elt : layer.elts) {
    layer_elt.lookup->for_each_entry([&](std::span<const elt::EventLoss> batch) {
      for (const elt::EventLoss& entry : batch) top = std::max(top, entry.event);
    });
  }
  num_words_ = std::size_t{top} / 64 + 1;
  words_ = map_zeroed<Word>(num_words_);
  for (const LayerElt& layer_elt : layer.elts) {
    layer_elt.lookup->for_each_entry([&](std::span<const elt::EventLoss> batch) {
      for (const elt::EventLoss& entry : batch) {
        words_[entry.event >> 6].bits |= std::uint64_t{1} << (entry.event & 63);
      }
    });
  }
  std::size_t present = 0;
  for (std::size_t w = 0; w < num_words_; ++w) {
    words_[w].rank = present;
    present += static_cast<std::size_t>(std::popcount(words_[w].bits));
  }

  // Fold each row in ELT order, the order the dense fold sums in, from
  // -0.0: that leaves any first term as it is, so a row holding every ELT
  // folds exactly as the dense fold does. In a row that misses an ELT the
  // dense fold also adds that ELT's +0.0, which changes nothing but a -0.0
  // sum (into +0.0).
  values_ = map_zeroed<double>(present);
  std::fill_n(values_.get(), present, -0.0);
  for (const LayerElt& layer_elt : layer.elts) {
    const financial::FinancialTerms& terms = layer_elt.terms;
    layer_elt.lookup->for_each_entry([&](std::span<const elt::EventLoss> batch) {
      for (const elt::EventLoss& entry : batch) {
        const Word& word = words_[entry.event >> 6];
        const std::uint64_t below = (std::uint64_t{1} << (entry.event & 63)) - 1;
        values_[static_cast<std::size_t>(word.rank) +
                static_cast<std::size_t>(std::popcount(word.bits & below))] +=
            terms.apply(entry.loss);
      }
    });
  }
  // So only the rows that folded to -0.0 (every term -0.0) can differ from
  // the dense fold. Those are rare; each is folded again the dense way.
  for (std::size_t w = 0; w < num_words_; ++w) {
    std::size_t row = static_cast<std::size_t>(words_[w].rank);
    for (std::uint64_t bits = words_[w].bits; bits != 0; bits &= bits - 1, ++row) {
      if (std::bit_cast<std::uint64_t>(values_[row]) != std::bit_cast<std::uint64_t>(-0.0)) {
        continue;
      }
      const auto event = static_cast<catalog::EventId>(64 * w + std::countr_zero(bits));
      double sum = layer.elts[0].terms.apply(layer.elts[0].lookup->lookup(event));
      for (std::size_t e = 1; e < layer.elts.size(); ++e) {
        sum += layer.elts[e].terms.apply(layer.elts[e].lookup->lookup(event));
      }
      values_[row] = sum;
    }
  }
}

SparseLayerTable::~SparseLayerTable() = default;

void SparseLayerTable::combine(const catalog::EventId* events, std::size_t count,
                               double* combined) const noexcept {
  constexpr std::size_t kLookahead = 16;
  const Word* words = words_.get();
  const std::size_t num_words = num_words_;
  const double* values = values_.get();
  for (std::size_t i = 0; i < count; ++i) {
    if (i + kLookahead < count) {
      const std::size_t ahead = events[i + kLookahead] >> 6;
      if (ahead < num_words) simd::prefetch_read(words + ahead);
    }
    const catalog::EventId event = events[i];
    double loss = 0.0;
    if ((event >> 6) < num_words) {
      const Word& word = words[event >> 6];
      const std::uint64_t bit = std::uint64_t{1} << (event & 63);
      if ((word.bits & bit) != 0) {
        loss = values[static_cast<std::size_t>(word.rank) +
                      static_cast<std::size_t>(std::popcount(word.bits & (bit - 1)))];
      }
    }
    combined[i] = loss;
  }
}

}  // namespace are::core
