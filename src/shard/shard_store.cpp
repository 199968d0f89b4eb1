#include "shard/shard_store.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <exception>
#include <fstream>
#include <stdexcept>
#include <string>
#include <system_error>
#include <utility>

#include "core/status.hpp"
#include "fault/fault_injection.hpp"
#include "io/binary.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"

namespace are::shard {

namespace {

std::size_t bytes_of(std::size_t doubles) { return doubles * sizeof(double); }

/// Registry mirrors of ShardStoreStats, shared by every store in the
/// process (the per-store struct stays the per-instance view). Updated at
/// spill/fault granularity — disk I/O dwarfs the counter cost.
struct StoreCounters {
  obs::Counter& spills;
  obs::Counter& faults;
  obs::Counter& quarantined;
  obs::Counter& bytes_spilled;
  obs::Counter& bytes_faulted;
  obs::Gauge& resident_bytes;
  obs::Gauge& peak_resident_bytes;

  static StoreCounters& get() {
    static StoreCounters counters{
        obs::TelemetryRegistry::global().counter("shard.spills"),
        obs::TelemetryRegistry::global().counter("shard.faults"),
        obs::TelemetryRegistry::global().counter("shard.quarantined"),
        obs::TelemetryRegistry::global().counter("shard.bytes_spilled"),
        obs::TelemetryRegistry::global().counter("shard.bytes_faulted"),
        obs::TelemetryRegistry::global().gauge("shard.resident_bytes"),
        obs::TelemetryRegistry::global().gauge("shard.peak_resident_bytes"),
    };
    return counters;
  }
};

/// Unique default spill-dir name: pid + process-wide counter, so concurrent
/// analyses (in this process or another on the same box) can never share a
/// directory and fault back each other's shards.
std::string unique_spill_dir_name() {
  static std::atomic<std::uint64_t> counter{0};
  return "are_ylt_shards_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter.fetch_add(1));
}

[[noreturn]] void throw_spill(const std::string& message) {
  throw core::StatusError(core::StatusCode::kSpillFailure, message);
}

/// Crash-safe shard write: the payload lands in `<path>.tmp`, is fsynced,
/// and only then renamed over `path`. A crash or write failure at any point
/// leaves either the previous complete file or removable *.tmp debris —
/// never a truncated shard_<i>.bin that a later fault-in would half-read.
void write_shard_durable(const std::filesystem::path& path, std::span<const double> values,
                         std::size_t shard_index, const std::filesystem::path& spill_dir) {
  if (fault::should_inject(fault::sites::kShardSpillWrite)) {
    throw_spill("injected fault: shard.spill_write (shard " + std::to_string(shard_index) + ")");
  }
  const std::filesystem::path tmp = path.string() + ".tmp";
  std::error_code discard_error;
  try {
    {
      std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
      if (!out) {
        throw_spill("shard store: cannot open spill file for shard " +
                    std::to_string(shard_index) + " under " + spill_dir.string());
      }
      io::write_shard_binary(out, values);
      out.flush();
      if (!out) {
        throw_spill("shard store: short write spilling shard " + std::to_string(shard_index));
      }
    }
    const int fd = ::open(tmp.c_str(), O_WRONLY);
    if (fd < 0) throw_spill("shard store: cannot reopen spill tmp for fsync: " + tmp.string());
    const int synced = ::fsync(fd);
    ::close(fd);
    if (synced != 0) throw_spill("shard store: fsync failed spilling shard " +
                                 std::to_string(shard_index));
    std::error_code error;
    std::filesystem::rename(tmp, path, error);
    if (error) {
      throw_spill("shard store: cannot commit spill file for shard " +
                  std::to_string(shard_index) + ": " + error.message());
    }
  } catch (...) {
    std::filesystem::remove(tmp, discard_error);
    throw;
  }
}

}  // namespace

ShardStore::ShardStore(std::vector<std::size_t> shard_doubles, ShardStoreConfig config)
    : config_(std::move(config)) {
  shards_.resize(shard_doubles.size());
  for (std::size_t i = 0; i < shard_doubles.size(); ++i) {
    shards_[i].size_doubles = shard_doubles[i];
    buffer_doubles_ = std::max(buffer_doubles_, shard_doubles[i]);
  }
  // At most one buffer per shard exists, so returning one to the list
  // never reallocates (and never throws) inside the eviction loop.
  free_buffers_.reserve(shards_.size());
  // The spill directory is resolved lazily in ensure_spill_dir(): a store
  // that never spills must not touch the filesystem at all. A *configured*
  // base dir is the exception: it is where a crashed predecessor's *.tmp
  // debris would live, so sweep it now (stores on the default system temp
  // dir keep the no-touch invariant — their debris is pid-scoped anyway).
  if (!config_.spill_dir.empty()) sweep_orphaned_tmp(config_.spill_dir);
}

void ShardStore::sweep_orphaned_tmp(const std::filesystem::path& base) noexcept {
  std::error_code error;
  std::filesystem::recursive_directory_iterator it(
      base, std::filesystem::directory_options::skip_permission_denied, error);
  if (error) return;
  for (std::filesystem::recursive_directory_iterator end; it != end; it.increment(error)) {
    if (error) return;
    const std::filesystem::path& path = it->path();
    const std::string name = path.filename().string();
    if (name.rfind("shard_", 0) == 0 && name.size() > 8 &&
        name.compare(name.size() - 8, 8, ".bin.tmp") == 0) {
      std::filesystem::remove(path, error);
    }
  }
}

ShardStore::~ShardStore() {
  std::error_code ignored;
  if (owns_spill_dir_) {
    // remove_all, not per-file remove: a spill that died mid-write or a
    // quarantined corrupt shard leaves *.tmp / *.quarantined files beside
    // the shard_<i>.bin set, and a plain remove of a non-empty directory
    // would silently leak the whole tree.
    std::filesystem::remove_all(spill_dir_, ignored);
  } else {
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      std::filesystem::remove(shard_path(i), ignored);
    }
  }
}

std::span<double> ShardStore::Pin::data() const noexcept {
  Shard& shard = store_->shards_[index_];
  return {shard.buffer.get(), shard.size_doubles};
}

void ShardStore::Pin::release() noexcept {
  if (store_ == nullptr) return;
  std::lock_guard<std::mutex> guard(store_->lock_);
  --store_->shards_[index_].pins;
  store_ = nullptr;
}

ShardStore::Pin ShardStore::pin(std::size_t shard_index, Access access) {
  std::unique_lock<std::mutex> lock(lock_);
  // Wait out any in-flight spill or fault of THIS shard by another thread;
  // I/O on other shards proceeds concurrently (that is the point).
  io_done_.wait(lock, [&] { return !shards_[shard_index].io_in_progress; });
  if (shards_[shard_index].quarantined) {
    throw core::StatusError(core::StatusCode::kDataCorruption,
                            "shard store: shard " + std::to_string(shard_index) +
                                " is quarantined after a checksum failure; discard() to recompute");
  }
  fault_in(lock, shard_index);
  Shard& shard = shards_[shard_index];
  // Incremented before eviction so the target stays protected while the
  // budget loop releases the lock around victim writes; if a spill fails,
  // no Pin is ever handed out, so the count must be rolled back here.
  ++shard.pins;
  shard.last_use = ++clock_;
  if (access == Access::kWrite) shard.dirty = true;
  try {
    evict_over_budget(lock, shard_index);
  } catch (...) {
    --shards_[shard_index].pins;
    throw;
  }
  return Pin(this, shard_index);
}

ShardStoreStats ShardStore::stats() const {
  std::lock_guard<std::mutex> guard(lock_);
  return stats_;
}

void ShardStore::discard(std::size_t shard_index) {
  std::unique_lock<std::mutex> lock(lock_);
  io_done_.wait(lock, [&] { return !shards_[shard_index].io_in_progress; });
  Shard& shard = shards_[shard_index];
  if (shard.pins != 0) {
    throw std::logic_error("shard store: discard of pinned shard " + std::to_string(shard_index));
  }
  if (shard.state == State::kResident) {
    uncharge_resident(shard.size_doubles);
  }
  shard.buffer.reset();
  shard.state = State::kZero;
  shard.dirty = false;
  shard.has_file = false;
  shard.quarantined = false;
  const std::filesystem::path path = shard_path(shard_index);
  if (!path.empty()) {
    std::error_code ignored;
    std::filesystem::remove(path, ignored);
    std::filesystem::remove(path.string() + ".quarantined", ignored);
  }
}

void ShardStore::fault_in(std::unique_lock<std::mutex>& lock, std::size_t shard_index) {
  Shard& shard = shards_[shard_index];
  if (shard.state == State::kResident) return;

  // The disk read (and any large allocation / zero fill) happens with the
  // store mutex released: the shard is marked in-transition, so concurrent
  // pins of this shard wait on io_done_ while pins of other shards proceed.
  const State prior = shard.state;
  shard.io_in_progress = true;
  const std::filesystem::path path = shard_path(shard_index);
  const std::size_t doubles = shard.size_doubles;
  Buffer buffer;
  if (!free_buffers_.empty()) {
    buffer = std::move(free_buffers_.back());
    free_buffers_.pop_back();
  }
  lock.unlock();

  // Anything thrown in the unlocked window (bad_alloc under the very
  // memory pressure this store targets, a checksum failure from the read)
  // must still clear io_in_progress under the lock, or every later pin()
  // of this shard would park on io_done_ forever.
  std::exception_ptr failure;
  bool corrupt = false;
  try {
    if (!buffer) {
      const std::size_t bytes = std::max<std::size_t>(bytes_of(buffer_doubles_), 1);
      void* pages =
          ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
      if (pages == MAP_FAILED) throw std::bad_alloc();
      buffer = Buffer(static_cast<double*>(pages), detail::Unmap{bytes});
    }
    if (prior == State::kSpilled) {
      obs::Span span("shard.fault", "shard");
      if (fault::should_inject(fault::sites::kShardFaultRead)) {
        throw core::StatusError(core::StatusCode::kIoError,
                                "injected fault: shard.fault_read (shard " +
                                    std::to_string(shard_index) + ")");
      }
      std::ifstream in(path, std::ios::binary);
      if (!in) {
        throw core::StatusError(core::StatusCode::kIoError,
                                "shard store: cannot reopen spill file for shard " +
                                    std::to_string(shard_index));
      }
      io::read_shard_binary(in, {buffer.get(), doubles});
    } else {
      std::fill_n(buffer.get(), doubles, 0.0);  // first touch: zeros
    }
  } catch (const core::StatusError& error) {
    corrupt = error.code() == core::StatusCode::kDataCorruption;
    failure = std::current_exception();
  } catch (...) {
    failure = std::current_exception();
  }

  lock.lock();
  shard.io_in_progress = false;
  io_done_.notify_all();
  if (failure) {
    if (corrupt) {
      // The spill file is provably bad (checksum/framing). Set it aside
      // under a name no fault-in will ever open — post-mortem evidence, not
      // a landmine — and flag the shard so later pins reject immediately
      // instead of re-reading garbage. discard() is the way back.
      std::error_code ignored;
      std::filesystem::rename(path, path.string() + ".quarantined", ignored);
      shard.quarantined = true;
      ++stats_.quarantined;
      if (obs::enabled()) StoreCounters::get().quarantined.increment();
    }
    std::rethrow_exception(failure);
  }
  shard.buffer = std::move(buffer);
  if (prior == State::kSpilled) ++stats_.faults;
  shard.state = State::kResident;
  shard.dirty = false;
  stats_.resident_bytes += bytes_of(doubles);
  if (stats_.resident_bytes > stats_.peak_resident_bytes) {
    stats_.peak_resident_bytes = stats_.resident_bytes;
  }
  if (obs::enabled()) {
    StoreCounters& counters = StoreCounters::get();
    if (prior == State::kSpilled) {
      counters.faults.increment();
      counters.bytes_faulted.add(bytes_of(doubles));
    }
    // The registry gauges aggregate residency across every store in the
    // process (delta-based), unlike the per-instance stats_ fields.
    counters.resident_bytes.add(static_cast<std::int64_t>(bytes_of(doubles)));
    counters.peak_resident_bytes.record_max(counters.resident_bytes.value());
  }
}

void ShardStore::evict_over_budget(std::unique_lock<std::mutex>& lock,
                                   std::size_t protect_index) {
  if (config_.memory_budget_bytes == 0) return;
  while (stats_.resident_bytes > config_.memory_budget_bytes) {
    // Least-recently-pinned resident shard that nobody holds. Shards whose
    // I/O is in flight are not kResident, so they are never re-selected.
    std::size_t victim = shards_.size();
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      const Shard& shard = shards_[i];
      if (i == protect_index || shard.state != State::kResident || shard.pins != 0) continue;
      if (victim == shards_.size() || shard.last_use < shards_[victim].last_use) victim = i;
    }
    if (victim == shards_.size()) return;  // everything evictable is pinned

    Shard& shard = shards_[victim];
    const std::size_t doubles = shard.size_doubles;
    if (!shard.dirty) {
      // Clean: the spill file (or, without one, all zeros) already holds
      // these bytes, so the buffer is dropped without any I/O.
      free_buffers_.push_back(std::move(shard.buffer));
      shard.state = shard.has_file ? State::kSpilled : State::kZero;
      uncharge_resident(doubles);
      continue;
    }

    // Detach the victim's buffer and write it out with the mutex released.
    // The bytes leave residency the moment the buffer detaches, so other
    // threads observe budget progress immediately; marking the victim
    // in-transition keeps pins of it parked on io_done_ until the write
    // lands (its state only becomes kSpilled then).
    ensure_spill_dir();
    shard.io_in_progress = true;
    shard.state = State::kSpilled;
    const std::filesystem::path path = shard_path(victim);
    Buffer buffer = std::move(shard.buffer);
    uncharge_resident(doubles);
    lock.unlock();

    // As in fault_in: whatever the unlocked write throws, io_in_progress
    // must be cleared under the lock and the victim rolled back to
    // residency before the error propagates.
    std::exception_ptr failure;
    try {
      obs::Span span("shard.spill", "shard");
      write_shard_durable(path, {buffer.get(), doubles}, victim, spill_dir_);
    } catch (...) {
      failure = std::current_exception();
    }

    lock.lock();
    shard.io_in_progress = false;
    io_done_.notify_all();
    if (failure) {
      shard.buffer = std::move(buffer);
      shard.state = State::kResident;
      stats_.resident_bytes += bytes_of(doubles);
      if (obs::enabled()) {
        StoreCounters::get().resident_bytes.add(static_cast<std::int64_t>(bytes_of(doubles)));
      }
      std::rethrow_exception(failure);
    }
    free_buffers_.push_back(std::move(buffer));
    shard.dirty = false;
    shard.has_file = true;
    ++stats_.spills;
    if (obs::enabled()) {
      StoreCounters& counters = StoreCounters::get();
      counters.spills.increment();
      counters.bytes_spilled.add(bytes_of(doubles));
    }
  }
}

void ShardStore::uncharge_resident(std::size_t doubles) {
  stats_.resident_bytes -= bytes_of(doubles);
  if (obs::enabled()) {
    StoreCounters::get().resident_bytes.add(-static_cast<std::int64_t>(bytes_of(doubles)));
  }
}

void detail::Unmap::operator()(double* data) const noexcept { ::munmap(data, bytes); }

std::filesystem::path ShardStore::shard_path(std::size_t shard_index) const {
  if (spill_dir_.empty()) return {};  // no spill has resolved the dir yet
  return spill_dir_ / ("shard_" + std::to_string(shard_index) + ".bin");
}

void ShardStore::ensure_spill_dir() {
  if (spill_dir_ready_) return;
  // Always a unique per-store subdirectory — under the configured dir or
  // the system temp dir — so shard files (fixed names, shard_<i>.bin) of
  // concurrent runs can never collide: a foreign same-index shard is a
  // well-formed, correctly-checksummed file the reader cannot reject.
  const std::filesystem::path base = config_.spill_dir.empty()
                                         ? std::filesystem::temp_directory_path()
                                         : std::filesystem::path(config_.spill_dir);
  spill_dir_ = base / unique_spill_dir_name();
  owns_spill_dir_ = true;
  std::error_code error;
  if (std::filesystem::create_directories(spill_dir_, error); error) {
    throw std::runtime_error("shard store: cannot create spill dir " + spill_dir_.string() +
                             ": " + error.message());
  }
  spill_dir_ready_ = true;
}

}  // namespace are::shard
