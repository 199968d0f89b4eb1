#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/year_loss_table.hpp"
#include "core/ylt_sink.hpp"
#include "shard/shard_store.hpp"

namespace are::shard {

/// Out-of-core Year Loss Table: losses live in fixed trial-range shards
/// behind a ShardStore with a memory budget, so analyses whose full
/// trials x layers table would not fit in memory still run — cold shards
/// spill to disk and fault back on access. Shard i owns trials
/// [i * shard_trials, min((i+1) * shard_trials, num_trials)); within a
/// shard the buffer is layer-major (layer 0's trials, then layer 1's, ...),
/// mirroring the materialized YearLossTable so a shard scan is the same
/// contiguous layer-row walk the metrics already do.
class ShardedYearLossTable {
 public:
  ShardedYearLossTable(std::vector<std::uint32_t> layer_ids, std::uint64_t num_trials,
                       std::uint64_t shard_trials, ShardStoreConfig store_config = {});

  /// Movable (the store lives behind a pointer: a mutex guards its
  /// metadata), not copyable. Outstanding ShardViews pin the store, so
  /// move only between runs.
  ShardedYearLossTable(ShardedYearLossTable&&) = default;
  ShardedYearLossTable& operator=(ShardedYearLossTable&&) = default;

  std::size_t num_layers() const noexcept { return layer_ids_.size(); }
  std::uint64_t num_trials() const noexcept { return num_trials_; }
  std::uint64_t shard_trials() const noexcept { return shard_trials_; }
  std::size_t num_shards() const noexcept { return store_->num_shards(); }
  std::span<const std::uint32_t> layer_ids() const noexcept { return layer_ids_; }

  std::uint64_t shard_begin(std::size_t shard_index) const noexcept {
    return static_cast<std::uint64_t>(shard_index) * shard_trials_;
  }
  std::uint64_t shard_end(std::size_t shard_index) const noexcept {
    const std::uint64_t end = shard_begin(shard_index) + shard_trials_;
    return end < num_trials_ ? end : num_trials_;
  }

  /// A pinned view of one shard: layer rows of shard_end - shard_begin
  /// trials each. Holding it keeps the shard resident; drop it promptly so
  /// the store can stay under budget. Only shard() hands out a mutable
  /// view (a write pin); for_each_shard passes a const one over a read
  /// pin, so a read pass cannot dirty a shard and force its rewrite.
  class ShardView {
   public:
    std::uint64_t trial_begin() const noexcept { return trial_begin_; }
    std::size_t trials() const noexcept { return trials_; }

    std::span<double> layer_losses(std::size_t layer_index) noexcept {
      return pin_.data().subspan(layer_index * trials_, trials_);
    }
    std::span<const double> layer_losses(std::size_t layer_index) const noexcept {
      return pin_.data().subspan(layer_index * trials_, trials_);
    }

   private:
    friend class ShardedYearLossTable;
    ShardView(ShardStore::Pin pin, std::uint64_t trial_begin, std::size_t trials)
        : pin_(std::move(pin)), trial_begin_(trial_begin), trials_(trials) {}

    ShardStore::Pin pin_;
    std::uint64_t trial_begin_ = 0;
    std::size_t trials_ = 0;
  };

  /// Pins shard `shard_index` for writing (faulting it back from disk if
  /// it was spilled). Thread-safe; concurrent writers to the same shard
  /// must target disjoint trial ranges.
  ShardView shard(std::size_t shard_index) {
    return pin_view(shard_index, ShardStore::Access::kWrite);
  }

  /// Copies one layer's losses for [trial_begin, trial_begin + n) into the
  /// owning shard. The range must lie within one shard (YltSink contract).
  void write(std::size_t layer_index, std::uint64_t trial_begin, std::span<const double> losses);

  /// Streams every shard in trial order through `fn(const ShardView&)` —
  /// the shard-wise reduction primitive. Each shard is read-pinned and
  /// released before the next is pinned, so peak residency is one shard
  /// regardless of table size, and a shard faulted in for the pass is
  /// dropped again without a rewrite.
  template <typename Fn>
  void for_each_shard(Fn&& fn) {
    for (std::size_t i = 0; i < num_shards(); ++i) {
      const ShardView view = pin_view(i, ShardStore::Access::kRead);
      fn(view);
    }
  }

  /// Assembles the monolithic YearLossTable (tests and small tables only —
  /// this is exactly the allocation sharding exists to avoid).
  core::YearLossTable materialize();

  ShardStoreStats stats() const { return store_->stats(); }
  const std::filesystem::path& spill_dir() const noexcept { return store_->spill_dir(); }

 private:
  ShardView pin_view(std::size_t shard_index, ShardStore::Access access);
  static std::vector<std::size_t> shard_sizes(std::size_t num_layers, std::uint64_t num_trials,
                                              std::uint64_t shard_trials);

  std::vector<std::uint32_t> layer_ids_;
  std::uint64_t num_trials_ = 0;
  std::uint64_t shard_trials_ = 0;
  std::unique_ptr<ShardStore> store_;
};

/// YltSink over a ShardedYearLossTable: engines emit finished trial-range
/// blocks straight into the owning shard, so no monolithic buffer ever
/// exists. block_trials() advertises the shard size; the fused engine
/// aligns its tile boundaries to it and writes each finished tile directly
/// into exactly one shard.
class ShardedYltSink final : public core::YltSink {
 public:
  explicit ShardedYltSink(ShardedYearLossTable& table) : table_(table) {}

  void emit(std::size_t layer_index, std::uint64_t trial_begin,
            std::span<const double> losses) override {
    table_.write(layer_index, trial_begin, losses);
  }

  std::uint64_t block_trials() const noexcept override { return table_.shard_trials(); }

 private:
  ShardedYearLossTable& table_;
};

}  // namespace are::shard
