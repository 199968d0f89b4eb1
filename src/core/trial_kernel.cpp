#include "core/trial_kernel.hpp"

#include <algorithm>
#include <bit>
#include <exception>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "core/kernel_ext.hpp"
#include "core/trial_kernel_body.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "parallel/task_scratch.hpp"

namespace are::core {

bool openmp_available() noexcept {
#ifdef _OPENMP
  return true;
#else
  return false;
#endif
}

namespace {

/// Bitmap words of a trial with `events` occurrences: each trial starts a
/// new 64-bit word of the ground-up cache.
constexpr std::uint64_t words_for(std::uint64_t events) noexcept { return (events + 63) / 64; }

/// Adds a worker's phase timers into `phases` (null = not collecting) —
/// the post-run merge step for parallel drivers.
void collect_phases(const TrialKernelScratch& scratch, PhaseBreakdown* phases) noexcept {
  if (phases == nullptr) return;
  phases->fetch_seconds += scratch.phases.fetch_seconds;
  phases->lookup_seconds += scratch.phases.lookup_seconds;
  phases->financial_seconds += scratch.phases.financial_seconds;
  phases->layer_seconds += scratch.phases.layer_seconds;
  phases->output_seconds += scratch.phases.output_seconds;
}

/// The runtime dispatch table behind kernel construction. The scalar
/// instantiation lives in THIS translation unit (compiled with the default
/// flags — it must run anywhere the binary loads); every wider extension
/// routes to the factory in its own src/core/kernel_ext_*.cpp TU, present
/// exactly when CMake defined the matching ARE_KERNEL_TU_* macro. Callers
/// reach a wide factory only for extensions simd::runnable_extensions()
/// reports (the constructor guards), so a host never executes instructions
/// its cpuid did not report.
std::unique_ptr<TrialBlockKernel::Impl> make_impl(simd::Extension extension,
                                                  const Portfolio& portfolio,
                                                  const yet::YearEventTable& yet_table,
                                                  const TrialKernelConfig& config,
                                                  YearLossTable* ylt, YltSink* sink) {
  switch (extension) {
    case simd::Extension::kScalar:
      return std::make_unique<KernelImpl<simd::scalar_ext>>(portfolio, yet_table, config, ylt,
                                                            sink);
#if defined(ARE_KERNEL_TU_SSE2)
    case simd::Extension::kSse2:
      return detail::make_kernel_impl_sse2(portfolio, yet_table, config, ylt, sink);
#endif
#if defined(ARE_KERNEL_TU_AVX2)
    case simd::Extension::kAvx2:
      return detail::make_kernel_impl_avx2(portfolio, yet_table, config, ylt, sink);
#endif
#if defined(ARE_KERNEL_TU_AVX512)
    case simd::Extension::kAvx512:
      return detail::make_kernel_impl_avx512(portfolio, yet_table, config, ylt, sink);
#endif
#if defined(ARE_KERNEL_TU_NEON)
    case simd::Extension::kNeon:
      return detail::make_kernel_impl_neon(portfolio, yet_table, config, ylt, sink);
#endif
    default:
      throw std::invalid_argument("trial kernel: simd extension '" +
                                  std::string(to_string(extension)) +
                                  "' is not compiled into this binary");
  }
}

}  // namespace

TrialBlockKernel::TrialBlockKernel(const Portfolio& portfolio,
                                   const yet::YearEventTable& yet_table,
                                   const TrialKernelConfig& config, YearLossTable* ylt,
                                   YltSink* sink) {
  portfolio.validate();
  if (config.window) config.window->validate();
  if ((ylt == nullptr) == (sink == nullptr)) {
    throw std::invalid_argument("trial kernel: exactly one of YLT / sink must be given");
  }
  if (config.ground_up_capture != nullptr && config.ground_up_replay != nullptr) {
    throw std::invalid_argument(
        "trial kernel: ground_up_capture and ground_up_replay are mutually exclusive");
  }
  const auto check_cache_shape = [&](const GroundUpLossCache& cache, const char* which) {
    // Same layer count, trial count, event count, and per-trial word layout
    // (the bitmap words each trial's event count implies).
    bool matches = cache.num_layers() == portfolio.layers.size() &&
                   cache.num_trials() == yet_table.num_trials() &&
                   cache.total_events() == yet_table.total_events();
    const std::span<const std::uint64_t> offsets = yet_table.offsets();
    const std::span<const std::uint64_t> word_starts = cache.word_starts();
    for (std::size_t trial = 0; matches && trial < yet_table.num_trials(); ++trial) {
      matches = word_starts[trial + 1] - word_starts[trial] ==
                words_for(offsets[trial + 1] - offsets[trial]);
    }
    if (!matches) {
      throw std::invalid_argument(
          std::string("trial kernel: ") + which + " cache shape (" +
          std::to_string(cache.num_layers()) + " layers x " +
          std::to_string(cache.num_trials()) + " trials, " +
          std::to_string(cache.total_events()) + " events) does not match the run (" +
          std::to_string(portfolio.layers.size()) + " layers x " +
          std::to_string(yet_table.num_trials()) + " trials, " +
          std::to_string(yet_table.total_events()) + " events)");
    }
  };
  if (config.ground_up_capture != nullptr) {
    check_cache_shape(*config.ground_up_capture, "ground-up capture");
    if (config.ground_up_capture->sealed()) {
      throw std::invalid_argument("trial kernel: ground-up capture cache is already sealed");
    }
  }
  if (config.ground_up_replay != nullptr) {
    check_cache_shape(*config.ground_up_replay, "ground-up replay");
    if (!config.ground_up_replay->sealed()) {
      throw std::invalid_argument(
          "trial kernel: ground-up replay cache is not sealed (its capture did not cover "
          "every trial)");
    }
  }
  // The extension is checked against the RUNTIME capability (cpuid ∩
  // compiled-in) before any wide factory runs — an unrunnable extension
  // must fail with a diagnosable error, never an illegal instruction.
  if (!simd::mask_has(simd::runnable_extensions(), config.extension)) {
    throw std::invalid_argument("trial kernel: simd extension '" +
                                std::string(to_string(config.extension)) +
                                "' is not compiled into this binary or not supported by this "
                                "host's cpu");
  }
  extension_ = config.extension;
  impl_ = make_impl(extension_, portfolio, yet_table, config, ylt, sink);
  impl_->block_trials = config.block_trials != 0 ? config.block_trials
                                                 : default_tile_trials(portfolio, yet_table);
}

TrialBlockKernel::~TrialBlockKernel() = default;

void TrialBlockKernel::run_range(std::uint64_t first, std::uint64_t last,
                                 TrialKernelScratch& scratch) const {
  if (first >= last) return;
  impl_->run_range(first, last, scratch);
}

std::size_t TrialBlockKernel::block_trials() const noexcept { return impl_->block_trials; }

// --- GroundUpLossCache ---------------------------------------------------------

GroundUpLossCache::GroundUpLossCache(std::size_t num_layers,
                                     const yet::YearEventTable& yet_table)
    : total_events_(yet_table.total_events()),
      layers_(num_layers),
      segments_(num_layers) {
  const std::span<const std::uint64_t> offsets = yet_table.offsets();
  word_starts_.reserve(yet_table.num_trials() + 1);
  word_starts_.push_back(0);
  for (std::size_t trial = 0; trial < yet_table.num_trials(); ++trial) {
    word_starts_.push_back(word_starts_.back() + words_for(offsets[trial + 1] - offsets[trial]));
  }
}

void GroundUpLossCache::add_segment(std::size_t layer_index, std::uint64_t first,
                                    std::uint64_t last, std::span<const std::uint64_t> words,
                                    std::span<const double> values) {
  if (layer_index >= layers_.size() || first >= last || last > num_trials() ||
      words.size() != word_starts_[last] - word_starts_[first]) {
    throw std::invalid_argument("ground-up cache: segment does not fit the cache shape");
  }
  Segment segment{first, last, {words.begin(), words.end()}, {values.begin(), values.end()}};
  std::lock_guard<std::mutex> guard(mutex_);
  if (sealed_) throw std::invalid_argument("ground-up cache: segment added to a sealed cache");
  segments_[layer_index].push_back(std::move(segment));
}

bool GroundUpLossCache::seal() {
  std::lock_guard<std::mutex> guard(mutex_);
  if (sealed_) return true;
  const std::uint64_t trials = num_trials();
  const auto by_first = [](const Segment& a, const Segment& b) { return a.first < b.first; };
  for (std::vector<Segment>& segments : segments_) {
    std::sort(segments.begin(), segments.end(), by_first);
    std::uint64_t next = 0;
    for (const Segment& segment : segments) {
      if (segment.first != next) return false;
      next = segment.last;
    }
    if (next != trials) return false;
  }

  std::vector<SealedLayer> sealed(layers_.size());
  for (std::size_t layer_index = 0; layer_index < sealed.size(); ++layer_index) {
    const std::vector<Segment>& segments = segments_[layer_index];
    SealedLayer& layer = sealed[layer_index];
    std::size_t num_values = 0;
    for (const Segment& segment : segments) num_values += segment.values.size();
    layer.words.reserve(word_starts_.back());
    layer.values.reserve(num_values);
    for (const Segment& segment : segments) {
      layer.words.insert(layer.words.end(), segment.words.begin(), segment.words.end());
      layer.values.insert(layer.values.end(), segment.values.begin(), segment.values.end());
    }
    layer.value_starts.reserve(trials + 1);
    layer.value_starts.push_back(0);
    for (std::uint64_t trial = 0; trial < trials; ++trial) {
      std::uint64_t present = 0;
      for (std::uint64_t w = word_starts_[trial]; w < word_starts_[trial + 1]; ++w) {
        present += static_cast<std::uint64_t>(std::popcount(layer.words[w]));
      }
      layer.value_starts.push_back(layer.value_starts.back() + present);
    }
    if (layer.value_starts.back() != layer.values.size()) return false;
  }
  layers_ = std::move(sealed);
  segments_.assign(layers_.size(), {});
  sealed_ = true;
  return true;
}

GroundUpLossCache::LayerView GroundUpLossCache::layer(std::size_t layer_index) const {
  if (!sealed_) throw std::logic_error("ground-up cache: not sealed");
  const SealedLayer& layer = layers_.at(layer_index);
  return {layer.words, layer.value_starts, layer.values};
}

std::uint64_t GroundUpLossCache::entries() const noexcept {
  std::uint64_t total = 0;
  for (const SealedLayer& layer : layers_) total += layer.values.size();
  return total;
}

std::size_t GroundUpLossCache::memory_bytes() const noexcept {
  std::lock_guard<std::mutex> guard(mutex_);
  std::size_t bytes = word_starts_.size() * sizeof(std::uint64_t);
  for (const SealedLayer& layer : layers_) {
    bytes += (layer.words.size() + layer.value_starts.size()) * sizeof(std::uint64_t) +
             layer.values.size() * sizeof(double);
  }
  for (const std::vector<Segment>& segments : segments_) {
    for (const Segment& segment : segments) {
      bytes += segment.words.size() * sizeof(std::uint64_t) +
               segment.values.size() * sizeof(double);
    }
  }
  return bytes;
}

std::size_t GroundUpLossCache::estimate_bytes(std::size_t num_layers,
                                              const yet::YearEventTable& yet_table) noexcept {
  const std::span<const std::uint64_t> offsets = yet_table.offsets();
  std::uint64_t words = 0;
  for (std::size_t trial = 0; trial < yet_table.num_trials(); ++trial) {
    words += words_for(offsets[trial + 1] - offsets[trial]);
  }
  const std::size_t starts = (yet_table.num_trials() + 1) * sizeof(std::uint64_t);
  const std::size_t per_layer = starts + static_cast<std::size_t>(words) * sizeof(std::uint64_t) +
                                static_cast<std::size_t>(yet_table.total_events()) * sizeof(double);
  return starts + num_layers * per_layer;
}

// --- The driver entry point ---------------------------------------------------

void run_trial_kernel(const Portfolio& portfolio, const yet::YearEventTable& yet_table,
                      const TrialKernelConfig& config, const KernelLaunch& launch,
                      YearLossTable* ylt, YltSink* sink, PhaseBreakdown* phases) {
  // The kernel polls a driver-internal token chained to the caller's: a
  // worker that fails (spill error, alloc, deadline) cancels it, and every
  // other worker stops at its next block boundary instead of grinding out
  // an answer nobody will read. The caller's token still supplies the
  // reason when IT fires (chained tokens adopt the parent's reason).
  CancelToken abort(config.cancel);
  TrialKernelConfig kernel_config = config;
  kernel_config.cancel = &abort;
  const TrialBlockKernel kernel(portfolio, yet_table, kernel_config, ylt, sink);
  if (phases != nullptr) *phases = {};
  const std::uint64_t num_trials = yet_table.num_trials();
  if (num_trials == 0) {
    if (config.ground_up_capture != nullptr) config.ground_up_capture->seal();
    return;
  }

  obs::Span launch_span("kernel.launch", "kernel");
  if (obs::enabled()) {
    obs::TelemetryRegistry& registry = obs::TelemetryRegistry::global();
    registry.counter("kernel.launches").increment();
    // Which extension actually executed, per launch — the runtime dispatch
    // decision made observable (exported to /metrics and --telemetry like
    // every other name-embedded label family).
    registry
        .counter("kernel.simd_ext{ext=" + std::string(to_string(kernel.extension())) + "}")
        .increment();
  }

  KernelLaunch::Schedule schedule = launch.schedule;
#ifndef _OPENMP
  // No OpenMP in this build: the bit-identical thread-pool fallback runs
  // (surfaced to callers via openmp_available()).
  if (schedule == KernelLaunch::Schedule::kOpenMp) schedule = KernelLaunch::Schedule::kPool;
#endif

  switch (schedule) {
    case KernelLaunch::Schedule::kSerial: {
      TrialKernelScratch scratch;
      kernel.run_range(0, num_trials, scratch);
      collect_phases(scratch, phases);
      break;
    }
    case KernelLaunch::Schedule::kPool:
    case KernelLaunch::Schedule::kCosted: {
      std::optional<parallel::ThreadPool> owned;
      parallel::ThreadPool& pool =
          launch.pool != nullptr ? *launch.pool : owned.emplace(launch.num_threads);
      parallel::TaskScratch<TrialKernelScratch> scratches(pool);
      // Pool tasks must not throw (an escaping exception terminates, by
      // pool design): the body catches everything, keeps the FIRST failure,
      // cancels the shared token so sibling tasks wind down at their next
      // block, and the driver rethrows once the launch has drained.
      std::mutex failure_mutex;
      std::exception_ptr failure;
      const auto body = [&](std::uint64_t first, std::uint64_t last) {
        try {
          kernel.run_range(first, last, scratches.local());
        } catch (...) {
          {
            std::lock_guard<std::mutex> guard(failure_mutex);
            if (!failure) failure = std::current_exception();
          }
          abort.cancel();
        }
      };
      if (schedule == KernelLaunch::Schedule::kPool) {
        parallel::parallel_for(pool, 0, num_trials, body, {launch.partition, launch.chunk});
      } else {
        // Chunks carry ~one block's worth of events (the YET offsets are
        // the cost prefix), so skewed trial lengths spread across workers.
        const double mean_events = std::max(1.0, yet_table.mean_events_per_trial());
        const std::uint64_t chunk_cost = std::max<std::uint64_t>(
            1, static_cast<std::uint64_t>(static_cast<double>(kernel.block_trials()) *
                                          mean_events));
        parallel::parallel_for_costed(pool, 0, num_trials, yet_table.offsets(), chunk_cost,
                                      body, launch.partition);
      }
      if (failure) std::rethrow_exception(failure);
      scratches.for_each([&](const TrialKernelScratch& scratch) {
        collect_phases(scratch, phases);
      });
      break;
    }
    case KernelLaunch::Schedule::kOpenMp: {
#ifdef _OPENMP
      int num_threads = static_cast<int>(launch.num_threads);
      if (num_threads <= 0) num_threads = omp_get_max_threads();
      const std::uint64_t block = kernel.block_trials();
      const auto num_blocks = static_cast<std::int64_t>((num_trials + block - 1) / block);
      // Exceptions may not escape an OpenMP region: same first-failure +
      // shared-token protocol as the pool path, rethrown after the join.
      std::mutex failure_mutex;
      std::exception_ptr failure;
#pragma omp parallel num_threads(num_threads)
      {
        TrialKernelScratch scratch;
#pragma omp for schedule(static)
        for (std::int64_t b = 0; b < num_blocks; ++b) {
          try {
            const std::uint64_t first = static_cast<std::uint64_t>(b) * block;
            kernel.run_range(first, std::min<std::uint64_t>(first + block, num_trials),
                             scratch);
          } catch (...) {
            {
              std::lock_guard<std::mutex> guard(failure_mutex);
              if (!failure) failure = std::current_exception();
            }
            abort.cancel();
          }
        }
#pragma omp critical(are_trial_kernel_collect)
        collect_phases(scratch, phases);
      }
      if (failure) std::rethrow_exception(failure);
#endif
      break;
    }
  }

  // Every block has run (a failed launch rethrew above and leaves the
  // capture unsealed): concatenate the capture's segments in trial order.
  if (config.ground_up_capture != nullptr) config.ground_up_capture->seal();

  // Feed the collected per-phase wall times into the telemetry registry so
  // an instrumented run's Fig-6b attribution is visible to exporters and
  // the service.
  if (obs::enabled() && config.instrument && phases != nullptr) {
    obs::TelemetryRegistry& registry = obs::TelemetryRegistry::global();
    const auto ns = [](double seconds) {
      return static_cast<std::uint64_t>(seconds * 1e9);
    };
    registry.counter("kernel.phase.fetch_ns").add(ns(phases->fetch_seconds));
    registry.counter("kernel.phase.lookup_ns").add(ns(phases->lookup_seconds));
    registry.counter("kernel.phase.financial_ns").add(ns(phases->financial_seconds));
    registry.counter("kernel.phase.layer_ns").add(ns(phases->layer_seconds));
    registry.counter("kernel.phase.output_ns").add(ns(phases->output_seconds));
  }
}

std::size_t default_tile_trials(const Portfolio& portfolio,
                                const yet::YearEventTable& yet_table) noexcept {
  // Per staged event a block touches ~20 bytes across the batched phases:
  // the event id (4 B) + timestamp (4 B) + combined-loss entry (8 B), plus
  // slack for the block's other scratch (sink rows, capture segment).
  constexpr double kBytesPerEvent = 20.0;
  constexpr std::size_t kCacheResident = std::size_t{2} << 20;

  std::size_t footprint = 0;
  for (const Layer& layer : portfolio.layers) {
    for (const LayerElt& layer_elt : layer.elts) {
      if (layer_elt.lookup) footprint += layer_elt.lookup->memory_bytes();
    }
  }
  // Cache-resident tables leave the whole budget to the block (the regime
  // where bench_fused_tiling measured ~256-trial optima at sub-scale); once
  // the tables far exceed the cache, lookups miss regardless and a smaller
  // block keeps the staged buffers from thrashing as well.
  const std::size_t block_budget =
      footprint <= kCacheResident ? (std::size_t{1} << 20) : (std::size_t{1} << 18);
  const double events = std::max(1.0, yet_table.mean_events_per_trial());
  const double block = static_cast<double>(block_budget) / (kBytesPerEvent * events);
  return std::clamp(static_cast<std::size_t>(block), std::size_t{16}, std::size_t{4096});
}

}  // namespace are::core
