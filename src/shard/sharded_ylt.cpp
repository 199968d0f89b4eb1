#include "shard/sharded_ylt.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace are::shard {

std::vector<std::size_t> ShardedYearLossTable::shard_sizes(std::size_t num_layers,
                                                           std::uint64_t num_trials,
                                                           std::uint64_t shard_trials) {
  if (shard_trials == 0) {
    throw std::invalid_argument("sharded YLT: shard_trials must be > 0");
  }
  std::vector<std::size_t> sizes;
  for (std::uint64_t begin = 0; begin < num_trials; begin += shard_trials) {
    const std::uint64_t trials = std::min(shard_trials, num_trials - begin);
    sizes.push_back(num_layers * static_cast<std::size_t>(trials));
  }
  return sizes;
}

ShardedYearLossTable::ShardedYearLossTable(std::vector<std::uint32_t> layer_ids,
                                           std::uint64_t num_trials, std::uint64_t shard_trials,
                                           ShardStoreConfig store_config)
    : layer_ids_(std::move(layer_ids)),
      num_trials_(num_trials),
      shard_trials_(shard_trials),
      store_(std::make_unique<ShardStore>(
          shard_sizes(layer_ids_.size(), num_trials, shard_trials), std::move(store_config))) {}

ShardedYearLossTable::ShardView ShardedYearLossTable::pin_view(std::size_t shard_index,
                                                               ShardStore::Access access) {
  const std::uint64_t begin = shard_begin(shard_index);
  const auto trials = static_cast<std::size_t>(shard_end(shard_index) - begin);
  return ShardView(store_->pin(shard_index, access), begin, trials);
}

void ShardedYearLossTable::write(std::size_t layer_index, std::uint64_t trial_begin,
                                 std::span<const double> losses) {
  if (losses.empty()) return;
  const auto shard_index = static_cast<std::size_t>(trial_begin / shard_trials_);
  const std::uint64_t last_trial = trial_begin + losses.size() - 1;
  if (shard_index >= num_shards() || last_trial >= num_trials_ ||
      last_trial / shard_trials_ != shard_index) {
    throw std::out_of_range("sharded YLT: emitted block crosses a shard boundary");
  }
  ShardView view = shard(shard_index);
  double* row = view.layer_losses(layer_index).data();
  const auto offset = static_cast<std::size_t>(trial_begin - view.trial_begin());
  std::copy(losses.begin(), losses.end(), row + offset);
}

core::YearLossTable ShardedYearLossTable::materialize() {
  core::YearLossTable ylt(std::vector<std::uint32_t>(layer_ids_.begin(), layer_ids_.end()),
                          static_cast<std::size_t>(num_trials_));
  for_each_shard([&](const ShardView& view) {
    for (std::size_t layer = 0; layer < num_layers(); ++layer) {
      const auto shard_row = view.layer_losses(layer);
      double* out = ylt.layer_losses(layer).data() + view.trial_begin();
      std::copy(shard_row.begin(), shard_row.end(), out);
    }
  });
  return ylt;
}

}  // namespace are::shard
