#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/coverage_window.hpp"
#include "core/layer.hpp"
#include "core/year_loss_table.hpp"
#include "core/ylt_sink.hpp"
#include "parallel/parallel_for.hpp"
#include "yet/year_event_table.hpp"

namespace are::core {

/// Builds the (layer ids x trials) output table a materialized run fills.
inline YearLossTable make_year_loss_table(const Portfolio& portfolio,
                                          const yet::YearEventTable& yet_table) {
  std::vector<std::uint32_t> ids;
  ids.reserve(portfolio.layers.size());
  for (const Layer& layer : portfolio.layers) ids.push_back(layer.id);
  return YearLossTable(std::move(ids), yet_table.num_trials());
}

/// Aggregate analysis, sequential reference engine — the bit-identity
/// anchor. The paper's "Basic Algorithm for Aggregate Risk Analysis" —
/// (1) look up each event's loss in each covered ELT, (2) apply the ELT
/// financial terms and combine across ELTs, (3) apply occurrence terms,
/// (4) accumulate and apply aggregate terms — executes in the shared
/// trial-block kernel (core/trial_kernel.hpp); this runs it on one thread
/// over the whole trial range with every optional feature off. Equivalence
/// tests pin every engine preset (core/analysis.hpp) against it.
YearLossTable run_sequential(const Portfolio& portfolio, const yet::YearEventTable& yet_table);

/// Phase attribution of an instrumented run (Fig 6b of the paper: event
/// fetch / ELT lookup / financial terms / layer terms, plus output). The
/// kernel stamps the boundaries per chunk and layer in the block loop
/// every run executes, so the phases time the production code:
///   - fetch: 0 — the loop reads the YET in place, nothing is staged;
///   - lookup: the combine — the pre-folded layer table's rows, or the
///     dense direct gathers of a cache-resident all-direct layer;
///   - financial: 0 on every layer. The folded table applied the ELT terms
///     when the launch built it, and the dense gathers apply them as they
///     read each loss, so both fall in lookup (the field keeps the
///     paper's Fig-6b shape);
///   - layer: the occurrence and aggregate terms, or a delta replay's fold;
///   - output: the ground-up capture plus the sink emit — 0 on materialized
///     runs without a capture, so the four Fig-6b fractions sum to 1.0
///     there.
struct PhaseBreakdown {
  double fetch_seconds = 0.0;
  double lookup_seconds = 0.0;
  double financial_seconds = 0.0;
  double layer_seconds = 0.0;
  double output_seconds = 0.0;

  double total_seconds() const noexcept {
    return fetch_seconds + lookup_seconds + financial_seconds + layer_seconds + output_seconds;
  }
  /// Fractions are 0.0 (not NaN) when nothing has been timed yet.
  double fetch_fraction() const noexcept { return fraction(fetch_seconds); }
  double lookup_fraction() const noexcept { return fraction(lookup_seconds); }
  double financial_fraction() const noexcept { return fraction(financial_seconds); }
  double layer_fraction() const noexcept { return fraction(layer_seconds); }
  double output_fraction() const noexcept { return fraction(output_seconds); }

 private:
  double fraction(double seconds) const noexcept {
    const double total = total_seconds();
    return total > 0.0 ? seconds / total : 0.0;
  }
};

/// Memory-access counts per run — the inputs to the perfmodel and simgpu
/// cost models. "Random" accesses are dependent loads with no locality
/// (ELT lookups); "streaming" accesses are sequential scans (event fetch).
struct AccessCounts {
  std::uint64_t events_fetched = 0;       // streaming reads of E_{i,k}
  std::uint64_t elt_lookups = 0;          // random reads into lookup tables
  std::uint64_t financial_applications = 0;
  std::uint64_t layer_term_applications = 0;
};

/// Access counts of the paper's line-by-line algorithm, a function of the
/// inputs alone: the analytical models' input, and what an instrumented
/// run reports (InstrumentationSink::accesses).
AccessCounts predict_access_counts(const Portfolio& portfolio,
                                   const yet::YearEventTable& yet_table) noexcept;

/// Per-trial count of occurrences inside the coverage window (diagnostics
/// for seasonality studies: a hurricane-season window should capture most
/// hurricane occurrences and few winter-storm ones).
std::vector<std::uint64_t> occurrences_in_window(const yet::YearEventTable& yet_table,
                                                 const CoverageWindow& window);

}  // namespace are::core
