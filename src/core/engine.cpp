#include "core/engine.hpp"

#include <vector>

#include "core/trial_kernel.hpp"

namespace are::core {

YearLossTable run_sequential(const Portfolio& portfolio, const yet::YearEventTable& yet_table) {
  YearLossTable ylt = make_year_loss_table(portfolio, yet_table);
  run_trial_kernel(portfolio, yet_table, {}, {}, &ylt, nullptr);
  return ylt;
}

AccessCounts predict_access_counts(const Portfolio& portfolio,
                                   const yet::YearEventTable& yet_table) noexcept {
  AccessCounts counts;
  const std::uint64_t total_events = yet_table.total_events();
  for (const Layer& layer : portfolio.layers) {
    counts.events_fetched += total_events;
    counts.elt_lookups += layer.elts.size() * total_events;
    counts.financial_applications += layer.elts.size() * total_events;
    counts.layer_term_applications += 2 * total_events;
  }
  return counts;
}

std::vector<std::uint64_t> occurrences_in_window(const yet::YearEventTable& yet_table,
                                                 const CoverageWindow& window) {
  window.validate();
  std::vector<std::uint64_t> counts(yet_table.num_trials(), 0);
  for (std::size_t trial = 0; trial < yet_table.num_trials(); ++trial) {
    for (const float time : yet_table.trial_times(trial)) {
      if (window.covers(time)) ++counts[trial];
    }
  }
  return counts;
}

}  // namespace are::core
