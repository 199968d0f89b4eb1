#pragma once

#include <limits>
#include <stdexcept>

namespace are::financial {

inline constexpr double kUnlimited = std::numeric_limits<double>::infinity();

/// Generic excess-of-loss transform: the amount of `loss` that falls in the
/// band [retention, retention + limit], i.e. min(max(loss - retention, 0),
/// limit). This single function is the financial primitive behind both the
/// occurrence terms (lines 10-11 of the paper's algorithm) and the
/// aggregate terms (lines 14-15).
///
/// Contract with the SIMD engine (src/simd/vec.hpp): the branchy selects
/// below are exactly `min(max(loss - retention, 0.0), limit)` under the
/// x86 MINPD/MAXPD convention (second operand returned on equality) for
/// the engine's domain — finite non-negative losses, retentions >= 0,
/// limits >= 0 or +inf, never NaN. Any change to this arithmetic must
/// keep the vectorized form in core/simd_terms.hpp bit-identical (the
/// equivalence suite in tests/test_simd_engine.cpp enforces it).
constexpr double excess_of_loss(double loss, double retention, double limit) noexcept {
  const double in_excess = loss - retention;
  if (in_excess <= 0.0) return 0.0;
  return in_excess < limit ? in_excess : limit;
}

/// Per-ELT financial terms `I` (paper §II-A): each Event Loss Table carries
/// its own metadata including currency conversion and terms applied at the
/// level of each individual event loss (lines 6-7 of the algorithm).
struct FinancialTerms {
  /// Per-event retention (deductible) before the loss reaches the layer.
  double occurrence_retention = 0.0;
  /// Per-event limit on the ceded loss.
  double occurrence_limit = kUnlimited;
  /// Proportional share ceded to the reinsurer, in (0, 1].
  double share = 1.0;
  /// Currency conversion applied to the ELT's native-currency losses.
  double currency_rate = 1.0;

  constexpr double apply(double loss) const noexcept {
    return excess_of_loss(loss * currency_rate, occurrence_retention, occurrence_limit) * share;
  }

  void validate() const {
    if (occurrence_retention < 0.0) throw std::invalid_argument("negative ELT retention");
    if (!(occurrence_limit >= 0.0)) throw std::invalid_argument("negative ELT limit");
    if (!(share > 0.0) || share > 1.0) throw std::invalid_argument("ELT share must be in (0,1]");
    if (!(currency_rate > 0.0)) throw std::invalid_argument("currency rate must be > 0");
  }

  friend bool operator==(const FinancialTerms&, const FinancialTerms&) = default;
};

/// Layer terms `T = (TOccR, TOccL, TAggR, TAggL)` — Table I of the paper.
struct LayerTerms {
  /// Occurrence Retention: deductible of the insured for an individual
  /// occurrence loss.
  double occurrence_retention = 0.0;
  /// Occurrence Limit: coverage the insurer pays for occurrence losses in
  /// excess of the retention.
  double occurrence_limit = kUnlimited;
  /// Aggregate Retention: deductible for the annual cumulative loss.
  double aggregate_retention = 0.0;
  /// Aggregate Limit: coverage for annual cumulative losses in excess of
  /// the aggregate retention.
  double aggregate_limit = kUnlimited;

  /// Occurrence terms applied to one combined event loss (paper line 11).
  constexpr double apply_occurrence(double loss) const noexcept {
    return excess_of_loss(loss, occurrence_retention, occurrence_limit);
  }

  /// Aggregate terms applied to a running cumulative loss (paper line 15).
  constexpr double apply_aggregate(double cumulative) const noexcept {
    return excess_of_loss(cumulative, aggregate_retention, aggregate_limit);
  }

  void validate() const {
    if (occurrence_retention < 0.0 || aggregate_retention < 0.0) {
      throw std::invalid_argument("negative layer retention");
    }
    if (!(occurrence_limit >= 0.0) || !(aggregate_limit >= 0.0)) {
      throw std::invalid_argument("negative layer limit");
    }
  }

  /// A pure Per-Occurrence (Cat XL) contract: no aggregate features.
  static constexpr LayerTerms cat_xl(double retention, double limit) noexcept {
    return {retention, limit, 0.0, kUnlimited};
  }

  /// A pure Aggregate XL (stop-loss) contract: no per-occurrence features.
  static constexpr LayerTerms aggregate_xl(double retention, double limit) noexcept {
    return {0.0, kUnlimited, retention, limit};
  }

  friend bool operator==(const LayerTerms&, const LayerTerms&) = default;
};

}  // namespace are::financial
