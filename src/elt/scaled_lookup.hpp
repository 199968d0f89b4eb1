#pragma once

#include <cmath>
#include <memory>
#include <stdexcept>

#include "elt/lookup.hpp"

namespace are::elt {

/// Decorator that scales every loss of an underlying lookup by a constant
/// factor — the severity-stress primitive. Scaling the ELT losses (rather
/// than the YLT output) is the correct stress for non-linear layers: a
/// +20% severity stress attaches layers that the base book never touched,
/// which an output-side scale cannot capture.
///
/// Typical uses: climate-trend loading on a hurricane book, currency
/// devaluation on a foreign book, inflation adjustment of stale ELTs.
class ScaledLookup final : public ILossLookup {
 public:
  ScaledLookup(std::shared_ptr<const ILossLookup> base, double factor)
      : base_(std::move(base)), factor_(factor) {
    if (!base_) throw std::invalid_argument("scaled lookup needs a base table");
    // A finite factor keeps every absent event at factor * 0.0 == +0.0.
    if (!(factor >= 0.0) || !std::isfinite(factor)) {
      throw std::invalid_argument("scale factor must be finite and >= 0");
    }
  }

  double lookup(EventId event) const noexcept override {
    return factor_ * base_->lookup(event);
  }

  /// Forwards the batch to the base table's (prefetching) override, then
  /// scales in place, instead of degrading to the scalar default loop.
  void lookup_many(const EventId* events, std::size_t count, double* out) const noexcept override {
    base_->lookup_many(events, count, out);
    for (std::size_t i = 0; i < count; ++i) out[i] *= factor_;
  }

  /// The base table's entries, each scaled as lookup() scales it.
  void for_each_entry(const EntryVisitor& visit) const override {
    EntryBatcher scaled(visit);
    base_->for_each_entry([&](std::span<const EventLoss> entries) {
      for (const EventLoss& entry : entries) scaled.add(entry.event, factor_ * entry.loss);
    });
    scaled.flush();
  }

  std::size_t memory_bytes() const noexcept override { return base_->memory_bytes(); }
  LookupKind kind() const noexcept override { return base_->kind(); }
  std::size_t entry_count() const noexcept override { return base_->entry_count(); }

  double factor() const noexcept { return factor_; }
  const ILossLookup& base() const noexcept { return *base_; }

 private:
  std::shared_ptr<const ILossLookup> base_;
  double factor_;
};

}  // namespace are::elt
