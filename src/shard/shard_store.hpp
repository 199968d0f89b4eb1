#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

namespace are::shard {

namespace detail {
/// Shard storage is mapped pages (mmap/munmap), not malloc: shard buffers
/// never enter the allocator's per-thread arenas, which the evict/fault
/// churn would otherwise fragment into a growing RSS.
struct Unmap {
  std::size_t bytes = 0;
  void operator()(double* data) const noexcept;
};
}  // namespace detail

/// Placement policy for shard buffers.
struct ShardStoreConfig {
  /// Resident-buffer budget in bytes; 0 = unlimited (nothing ever spills).
  /// Pinned shards are exempt — the store may run over budget while a
  /// writer/reader holds a pin, and evicts back under budget on the next
  /// pin() (releases themselves never evict).
  std::size_t memory_budget_bytes = 0;

  /// Base directory for spill files. Each store spills into its own unique
  /// subdirectory of this (or of the system temp dir when empty), one
  /// checksummed binary file per spilled shard — see io::write_shard_binary
  /// — so concurrent runs sharing a base dir never collide. Created on
  /// first spill; the subdirectory and its files are removed by the
  /// store's destructor.
  std::string spill_dir;
};

/// Observability counters, stable across pin/release cycles.
struct ShardStoreStats {
  std::uint64_t spills = 0;       ///< shard buffers written out to disk (clean drops excluded)
  std::uint64_t faults = 0;       ///< shard buffers restored from disk
  std::uint64_t quarantined = 0;  ///< spill files set aside after checksum failure
  std::size_t resident_bytes = 0;
  std::size_t peak_resident_bytes = 0;
};

/// Bounded-memory home for a fixed set of equal-role buffers ("shards").
/// Shards start life virtually zero-filled (allocating nothing until first
/// pinned), stay resident while the budget allows, and leave residency
/// least-recently-used when it does not; pinning a non-resident shard
/// transparently faults it back. Only a dirty shard — one pinned for
/// writing since it was last faulted in or written out — is written to
/// disk on eviction. A clean one still equals its spill file (or is still
/// all zeros), so evicting it just frees the buffer. All metadata
/// operations are thread-safe; the data bytes behind a pin are the
/// caller's to synchronise (the sharded YLT writes disjoint ranges from
/// concurrent workers, which needs no locking).
class ShardStore {
 public:
  /// What a pin may do with the bytes. A kWrite pin marks the shard dirty
  /// when it is taken; a kRead pin leaves it clean, and its holder must
  /// not write through data().
  enum class Access : std::uint8_t { kRead, kWrite };

  /// `shard_doubles[i]` is shard i's element count (the last trial-range
  /// shard of a YLT is usually ragged).
  ShardStore(std::vector<std::size_t> shard_doubles, ShardStoreConfig config);
  ~ShardStore();

  ShardStore(const ShardStore&) = delete;
  ShardStore& operator=(const ShardStore&) = delete;

  /// RAII pin: the shard is resident and cannot be evicted while any Pin on
  /// it lives. Movable, not copyable.
  class Pin {
   public:
    Pin() = default;
    Pin(Pin&& other) noexcept : store_(other.store_), index_(other.index_) {
      other.store_ = nullptr;
    }
    Pin& operator=(Pin&& other) noexcept {
      if (this != &other) {
        release();
        store_ = other.store_;
        index_ = other.index_;
        other.store_ = nullptr;
      }
      return *this;
    }
    ~Pin() { release(); }

    std::span<double> data() const noexcept;
    explicit operator bool() const noexcept { return store_ != nullptr; }

   private:
    friend class ShardStore;
    Pin(ShardStore* store, std::size_t index) : store_(store), index_(index) {}
    void release() noexcept;

    ShardStore* store_ = nullptr;
    std::size_t index_ = 0;
  };

  /// Faults the shard in (allocating zeros on first touch, reading the
  /// spill file after an eviction) and pins it for `access`. May evict
  /// other, unpinned shards to get back under budget. Disk transfers
  /// (spill writes, fault reads) happen with the store mutex *released* —
  /// the shard in transition is marked and other threads pin other shards
  /// concurrently, so worker emits no longer serialise on a neighbour's
  /// I/O under memory pressure.
  ///
  /// Failure taxonomy (all derive from std::runtime_error):
  ///   core::StatusError(kSpillFailure)    an eviction's spill write failed
  ///                                       (ENOSPC, injected fault); the
  ///                                       victim is rolled back to residency
  ///   core::StatusError(kDataCorruption)  this shard's spill file failed its
  ///                                       checksum — the file is quarantined
  ///                                       (renamed *.quarantined) and every
  ///                                       later pin() throws the same code
  ///                                       until discard() resets the shard
  Pin pin(std::size_t shard_index, Access access = Access::kWrite);

  /// Drops a shard back to the virtually-zero state: buffer freed, spill
  /// and quarantine files removed, quarantine flag cleared. The recompute
  /// half of the corrupt-shard fallback — the owner re-runs the trial
  /// ranges that produced the shard, or rejects the request. Requires the
  /// shard to be unpinned.
  void discard(std::size_t shard_index);

  std::size_t num_shards() const noexcept { return shards_.size(); }
  std::size_t shard_doubles(std::size_t shard_index) const noexcept {
    return shards_[shard_index].size_doubles;
  }
  ShardStoreStats stats() const;

  /// The directory spill files land in (resolved from the config; the
  /// default temp subdirectory is created lazily).
  const std::filesystem::path& spill_dir() const noexcept { return spill_dir_; }

 private:
  enum class State : std::uint8_t {
    kZero,      ///< logically all zeros, no buffer, no file
    kResident,  ///< buffer in memory (a spill file from an earlier eviction may exist)
    kSpilled,   ///< buffer on disk only
  };

  using Buffer = std::unique_ptr<double[], detail::Unmap>;

  struct Shard {
    std::size_t size_doubles = 0;
    State state = State::kZero;
    // Raw pages, not a vector: a fault from disk fills every byte from
    // the spill file, so the buffer is not initialised (only a first-touch
    // kZero fault pays the zero fill).
    Buffer buffer;
    std::uint32_t pins = 0;
    std::uint64_t last_use = 0;  // LRU clock value at last pin
    /// The resident buffer may differ from what eviction would restore
    /// (the spill file, or zeros without one): set by a kWrite pin,
    /// cleared by a fault-in or a completed spill.
    bool dirty = false;
    /// A spill file holds this shard's last written-out bytes.
    bool has_file = false;
    /// Spill write / fault read in flight with the store mutex released.
    /// While set the shard is untouchable: pin() waits on io_done_, and
    /// eviction never selects it (it is not kResident during the window).
    bool io_in_progress = false;
    /// The spill file failed its checksum; pin() rejects with
    /// kDataCorruption until discard() clears the flag.
    bool quarantined = false;
  };

  // Both require lock_ held on entry and may release it around disk I/O
  // (the unique_lock is re-acquired before returning or throwing).
  void fault_in(std::unique_lock<std::mutex>& lock, std::size_t shard_index);
  void evict_over_budget(std::unique_lock<std::mutex>& lock, std::size_t protect_index);
  // Require lock_ held throughout.
  /// Takes a shard's bytes off the resident total as it leaves residency.
  void uncharge_resident(std::size_t doubles);
  std::filesystem::path shard_path(std::size_t shard_index) const;
  void ensure_spill_dir();
  /// Removes shard_*.bin.tmp debris a crashed predecessor left under
  /// `base` (spill writes land in a tmp file until renamed, so a *.tmp is
  /// by definition incomplete). Called from the constructor for configured
  /// spill dirs; best-effort, never throws.
  static void sweep_orphaned_tmp(const std::filesystem::path& base) noexcept;

  mutable std::mutex lock_;
  std::condition_variable io_done_;
  std::vector<Shard> shards_;
  /// Every buffer holds the largest shard, so buffers are interchangeable:
  /// one leaving residency joins free_buffers_, and a fault-in maps a new
  /// one only when that list is empty. A steady evict/fault cycle thus
  /// maps no new memory, and the store never holds more buffers than its
  /// peak count of resident shards.
  std::size_t buffer_doubles_ = 0;
  std::vector<Buffer> free_buffers_;
  ShardStoreConfig config_;
  std::filesystem::path spill_dir_;
  bool owns_spill_dir_ = false;   // we created it -> destructor removes it
  bool spill_dir_ready_ = false;  // directory exists on disk
  std::uint64_t clock_ = 0;
  ShardStoreStats stats_;
};

}  // namespace are::shard
