#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "elt/lookup.hpp"
#include "financial/terms.hpp"

namespace are::core {

/// One ELT as seen by a layer: the loss lookup structure plus the ELT-level
/// financial terms `I` (paper: "terms that are applied at the level of each
/// individual event loss").
struct LayerElt {
  std::shared_ptr<const elt::ILossLookup> lookup;
  financial::FinancialTerms terms;
};

/// A reinsurance layer (paper §II-A): a set of ELTs under layer terms
/// `T = (TOccR, TOccL, TAggR, TAggL)`. A typical layer covers 3-30 ELTs.
struct Layer {
  std::uint32_t id = 0;
  std::vector<LayerElt> elts;
  financial::LayerTerms terms;

  void validate() const {
    if (elts.empty()) throw std::invalid_argument("layer must cover at least one ELT");
    for (const LayerElt& layer_elt : elts) {
      if (!layer_elt.lookup) throw std::invalid_argument("layer ELT has no lookup table");
      layer_elt.terms.validate();
    }
    terms.validate();
  }

  /// True when every ELT of this layer is a plain direct access table — the
  /// precondition for the engines' raw-pointer fast path. Decorated tables
  /// (e.g. severity-stressed wrappers) intentionally fail this check and
  /// run from the folded layer table (core::SparseLayerTable).
  bool all_direct_access() const noexcept {
    for (const LayerElt& layer_elt : elts) {
      if (!layer_elt.lookup || layer_elt.lookup->as_direct_access() == nullptr) {
        return false;
      }
    }
    return !elts.empty();
  }
};

/// The portfolio under analysis: the layers of the outermost loop of the
/// paper's algorithm (line 1: "for all a in L").
struct Portfolio {
  std::vector<Layer> layers;

  void validate() const {
    if (layers.empty()) throw std::invalid_argument("portfolio must contain at least one layer");
    for (const Layer& layer : layers) layer.validate();
  }

  std::size_t num_layers() const noexcept { return layers.size(); }
};

}  // namespace are::core
