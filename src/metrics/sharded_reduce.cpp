#include "metrics/sharded_reduce.hpp"

#include <algorithm>
#include <queue>

namespace are::metrics {

namespace {

/// One cursor into a sorted run for the k-way merge heap.
struct RunHead {
  double value;
  std::size_t run;
  std::size_t index;
};

struct RunHeadGreater {
  bool operator()(const RunHead& a, const RunHead& b) const noexcept { return a.value > b.value; }
};

}  // namespace

EpCurve ep_curve_sharded(shard::ShardedYearLossTable& table, std::size_t layer_index) {
  // Pass 1: one sorted run per shard (the shard is released — and so may
  // spill — before the next is faulted in).
  std::vector<std::vector<double>> runs;
  runs.reserve(table.num_shards());
  table.for_each_shard([&](const shard::ShardedYearLossTable::ShardView& view) {
    const auto row = view.layer_losses(layer_index);
    runs.emplace_back(row.begin(), row.end());
    std::sort(runs.back().begin(), runs.back().end());
  });

  // Pass 2: k-way merge of the runs into one ascending vector. Same value
  // multiset as sorting the materialized row, hence the same sorted
  // sequence — the curve it feeds is bit-identical.
  std::priority_queue<RunHead, std::vector<RunHead>, RunHeadGreater> heap;
  for (std::size_t r = 0; r < runs.size(); ++r) {
    if (!runs[r].empty()) heap.push({runs[r][0], r, 0});
  }
  std::vector<double> merged;
  merged.reserve(static_cast<std::size_t>(table.num_trials()));
  while (!heap.empty()) {
    const RunHead head = heap.top();
    heap.pop();
    merged.push_back(head.value);
    const std::size_t next = head.index + 1;
    if (next < runs[head.run].size()) {
      heap.push({runs[head.run][next], head.run, next});
    } else {
      // Free exhausted runs as the merge drains them, instead of holding
      // every run until the end.
      runs[head.run] = {};
    }
  }
  return EpCurve::from_sorted(std::move(merged));
}

RunningStats stats_sharded(shard::ShardedYearLossTable& table, std::size_t layer_index) {
  // Welford is visit-order dependent; shards in trial order reproduce the
  // materialized row's scan order exactly.
  RunningStats stats;
  table.for_each_shard([&](const shard::ShardedYearLossTable::ShardView& view) {
    for (const double loss : view.layer_losses(layer_index)) stats.add(loss);
  });
  return stats;
}

std::vector<double> portfolio_losses_sharded(shard::ShardedYearLossTable& table) {
  std::vector<double> total(static_cast<std::size_t>(table.num_trials()), 0.0);
  table.for_each_shard([&](const shard::ShardedYearLossTable::ShardView& view) {
    for (std::size_t layer = 0; layer < table.num_layers(); ++layer) {
      const auto row = view.layer_losses(layer);
      double* out = total.data() + view.trial_begin();
      for (std::size_t i = 0; i < row.size(); ++i) out[i] += row[i];
    }
  });
  return total;
}

}  // namespace are::metrics
