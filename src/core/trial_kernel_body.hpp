#pragma once

// The templated trial-block kernel body, shared verbatim by every
// per-extension translation unit (src/core/kernel_ext_*.cpp) and by the
// scalar instantiation in trial_kernel.cpp. Include nowhere else.
//
// Everything below TrialBlockKernel::Impl lives in an anonymous namespace
// ON PURPOSE, even though this is a header: each ISA translation unit is
// compiled with its own -m flags (-mavx2, -mavx512f, …) and must keep a
// private internal-linkage copy of every helper. If these were ordinary
// inline/template symbols, the linker's comdat selection could pick, say,
// the AVX-512-compiled copy of a helper for the whole binary — and a
// binary whose scalar path executes ZMM instructions is exactly the bug
// runtime dispatch exists to prevent. The only external-linkage symbols a
// kernel_ext_*.cpp TU may define are its uniquely-named factory functions
// (see trial_kernel.cpp's dispatch table).

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <span>
#include <string>
#include <vector>

#include "core/direct_elt_view.hpp"
#include "core/simd_terms.hpp"
#include "core/sparse_layer.hpp"
#include "core/status.hpp"
#include "core/trial_kernel.hpp"
#include "fault/fault_injection.hpp"
#include "financial/trial_accumulator.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "simd/prefetch.hpp"
#include "simd/vec.hpp"

namespace are::core {

/// Lane-width erasure: the templated body behind a tiny virtual interface,
/// instantiated once per compiled extension and selected at construction.
/// Defined here (not in trial_kernel.cpp) so the per-extension TUs can
/// derive from it; the definition is identical in every includer.
struct TrialBlockKernel::Impl {
  virtual ~Impl() = default;
  virtual void run_range(std::uint64_t first, std::uint64_t last,
                         TrialKernelScratch& scratch) const = 0;
  std::size_t block_trials = 0;
};

namespace {

using KernelBodyClock = std::chrono::steady_clock;

/// The phase stamps of one block, taken only on instrumented launches
/// (`phases` non-null): charge() adds the time since the previous stamp to
/// one PhaseBreakdown field. Off, each call is one predicted branch.
class PhaseStamps {
 public:
  explicit PhaseStamps(PhaseBreakdown* phases) noexcept : phases_(phases) {
    if (phases_ != nullptr) last_ = KernelBodyClock::now();
  }

  void charge(double PhaseBreakdown::*phase) noexcept {
    if (phases_ == nullptr) return;
    const KernelBodyClock::time_point now = KernelBodyClock::now();
    phases_->*phase += std::chrono::duration<double>(now - last_).count();
    last_ = now;
  }

 private:
  PhaseBreakdown* phases_;
  KernelBodyClock::time_point last_{};
};

/// Immutable per-layer execution state hoisted out of the block loop: how
/// the layer's ELTs are combined (the pre-folded sparse table, or dense
/// direct gathers with the ELT terms broadcast into registers once), the
/// layer terms, and the layer's YLT row (empty in sink mode, where block
/// rows are staged and emitted instead).
template <typename V>
struct LayerPlan {
  const Layer* layer;
  // Exactly one route per full run: the folded table
  // (SparseLayerTable::wanted), else a cache-resident all-direct layer's
  // dense view. A replay has neither.
  std::unique_ptr<const SparseLayerTable> sparse;
  std::vector<detail::DirectElt> direct;
  std::vector<detail::EltTermsV<V>> elt_terms;  // the dense view's terms
  detail::LayerTermsV<V> terms;
  std::span<double> losses;
  GroundUpLossCache::LayerView replay;  // delta execution: this layer's cached losses
};

/// Combined ELT loss per event over the staged span for cache-resident
/// all-direct layers (every other layer uses its SparseLayerTable): guarded
/// gathers straight out of the (untransposed) YET event slice. The first
/// ELT writes, later ELTs accumulate — same per-event summation order as
/// the scalar reference (0.0 + x == x exactly for the engine's domain).
template <typename V>
void combine_elts_direct(const LayerPlan<V>& plan, const yet::EventId* events, std::size_t count,
                         double* combined) noexcept {
  constexpr std::size_t kW = V::kLanes;
  for (std::size_t e = 0; e < plan.direct.size(); ++e) {
    const detail::DirectElt& direct = plan.direct[e];
    const detail::EltTermsV<V>& terms_v = plan.elt_terms[e];
    const financial::FinancialTerms& terms = direct.terms;
    std::size_t i = 0;
    if (e == 0) {
      for (; i + kW <= count; i += kW) {
        const typename V::ivec idx = V::load_index(events + i);
        const typename V::reg loss = V::gather_guarded(direct.data, idx, direct.universe);
        V::store(combined + i, detail::apply_financial_v<V>(loss, terms_v));
      }
      for (; i < count; ++i) {
        const yet::EventId event = events[i];
        combined[i] = terms.apply(event < direct.universe ? direct.data[event] : 0.0);
      }
    } else {
      for (; i + kW <= count; i += kW) {
        const typename V::ivec idx = V::load_index(events + i);
        const typename V::reg loss = V::gather_guarded(direct.data, idx, direct.universe);
        V::store(combined + i,
                 V::add(V::load(combined + i), detail::apply_financial_v<V>(loss, terms_v)));
      }
      for (; i < count; ++i) {
        const yet::EventId event = events[i];
        combined[i] += terms.apply(event < direct.universe ? direct.data[event] : 0.0);
      }
    }
  }
}

/// Occurrence terms, vectorized in place.
template <typename V>
void apply_occurrence_terms(const LayerPlan<V>& plan, double* combined,
                            std::size_t count) noexcept {
  constexpr std::size_t kW = V::kLanes;
  std::size_t i = 0;
  for (; i + kW <= count; i += kW) {
    V::store(combined + i, detail::excess_v<V>(V::load(combined + i), plan.terms.occ_retention,
                                               plan.terms.occ_limit));
  }
  for (; i < count; ++i) combined[i] = plan.layer->terms.apply_occurrence(combined[i]);
}

/// The path-dependent aggregate recurrence, per trial, writing
/// row[trial - t0]. Windowed semantics: out-of-window occurrences are
/// skipped entirely, so they do not advance the recurrence.
inline void aggregate_trials(const financial::LayerTerms& terms, const double* combined,
                             const float* times, const CoverageWindow* window,
                             std::span<const std::uint64_t> offsets, std::uint64_t t0,
                             std::uint64_t t1, std::uint64_t ev0, double* row) noexcept {
  for (std::uint64_t trial = t0; trial < t1; ++trial) {
    financial::TrialAccumulator accumulator(terms);
    const std::size_t begin = static_cast<std::size_t>(offsets[trial] - ev0);
    const std::size_t end = static_cast<std::size_t>(offsets[trial + 1] - ev0);
    if (window == nullptr) {
      for (std::size_t k = begin; k < end; ++k) accumulator.add_occurrence(combined[k]);
    } else {
      for (std::size_t k = begin; k < end; ++k) {
        if (window->covers(times[k])) accumulator.add_occurrence(combined[k]);
      }
    }
    row[trial - t0] = accumulator.trial_loss();
  }
}

/// Ground-up capture of the combined chunk [c0, c0 + n) of the block that
/// starts at trial t0: sets the presence bit of every loss whose bits are
/// not +0.0 (a -0.0 is kept) and appends the loss to `values`, in event
/// order. `words` is the block's zeroed bitmap segment (trial t's bits at
/// words[word_starts[t] - word_starts[t0]]); `trial` is the cursor the
/// block's chunks share, starting at t0.
inline void capture_chunk(const double* combined, std::size_t c0, std::size_t n,
                          std::span<const std::uint64_t> offsets,
                          std::span<const std::uint64_t> word_starts, std::uint64_t t0,
                          std::uint64_t& trial, std::uint64_t* words,
                          std::vector<double>& values) {
  const std::uint64_t ev0 = offsets[t0];
  const std::size_t end = c0 + n;
  for (std::size_t pos = c0; pos < end;) {
    while (offsets[trial + 1] - ev0 <= pos) ++trial;  // steps over empty trials
    const std::size_t begin = static_cast<std::size_t>(offsets[trial] - ev0);
    const std::size_t stop = std::min<std::size_t>(end, offsets[trial + 1] - ev0);
    const double* trial_losses = combined + begin;
    std::uint64_t* trial_words = words + (word_starts[trial] - word_starts[t0]);
    for (std::size_t k = pos - begin; k < stop - begin;) {
      const std::size_t word_end = std::min(stop - begin, (k | 63) + 1);
      std::uint64_t present = 0;
      for (std::size_t j = k; j < word_end; ++j) {
        present |= static_cast<std::uint64_t>(std::bit_cast<std::uint64_t>(trial_losses[j]) != 0)
                   << (j & 63);
      }
      trial_words[k / 64] |= present;
      const double* word_losses = trial_losses + (k & ~std::size_t{63});
      for (; present != 0; present &= present - 1) {
        values.push_back(word_losses[std::countr_zero(present)]);
      }
      k = word_end;
    }
    pos = stop;
  }
}

/// Delta replay of one layer over trials [t0, t1). The block's present
/// cached losses (one contiguous run of the packed values) go through the
/// occurrence terms, vectorized into `occurrence`; then each trial feeds
/// its share to the aggregate recurrence in event order — all of it, or
/// with a window only the entries whose occurrence time the window covers
/// (set bit k = the trial's k-th event; `times` is the whole YET's). The
/// trial loss lands in row[trial - t0]. Bit-identical to aggregate_trials
/// over the dense losses (GroundUpLossCache's header has the argument).
/// Returns the entries folded.
template <typename V>
std::uint64_t replay_trials(const LayerPlan<V>& plan, std::span<const std::uint64_t> word_starts,
                            const float* times, const CoverageWindow* window,
                            std::span<const std::uint64_t> offsets, std::uint64_t t0,
                            std::uint64_t t1, std::vector<double>& occurrence, double* row) {
  const GroundUpLossCache::LayerView& cache = plan.replay;
  const std::uint64_t v0 = cache.value_starts[t0];
  const auto first = cache.values.begin() + static_cast<std::ptrdiff_t>(v0);
  occurrence.assign(first, first + static_cast<std::ptrdiff_t>(cache.value_starts[t1] - v0));
  apply_occurrence_terms<V>(plan, occurrence.data(), occurrence.size());

  std::uint64_t folded = 0;
  const double* loss = occurrence.data();
  for (std::uint64_t trial = t0; trial < t1; ++trial) {
    financial::TrialAccumulator accumulator(plan.layer->terms);
    if (window == nullptr) {
      const double* end = occurrence.data() + (cache.value_starts[trial + 1] - v0);
      for (; loss != end; ++loss, ++folded) accumulator.add_occurrence(*loss);
    } else {
      const float* trial_times = times + offsets[trial];
      for (std::uint64_t w = word_starts[trial]; w < word_starts[trial + 1]; ++w) {
        const std::size_t base = static_cast<std::size_t>(w - word_starts[trial]) * 64;
        for (std::uint64_t present = cache.words[w]; present != 0;
             present &= present - 1, ++loss) {
          if (!window->covers(trial_times[base + std::countr_zero(present)])) continue;
          accumulator.add_occurrence(*loss);
          ++folded;
        }
      }
    }
    row[trial - t0] = accumulator.trial_loss();
  }
  return folded;
}

template <typename Ext>
class KernelImpl final : public TrialBlockKernel::Impl {
  using V = simd::VecD<Ext>;

 public:
  KernelImpl(const Portfolio& portfolio, const yet::YearEventTable& yet_table,
             const TrialKernelConfig& config, YearLossTable* ylt, YltSink* sink)
      : yet_(&yet_table),
        event_chunk_(config.event_chunk),
        instrument_(config.instrument),
        capture_(config.ground_up_capture),
        replay_(config.ground_up_replay),
        cancel_(config.cancel),
        sink_(sink),
        sink_block_(sink != nullptr ? sink->block_trials() : 0) {
    if (config.window && !config.window->full_year()) {
      window_storage_ = *config.window;
      window_ = &window_storage_;
    }
    plans_.reserve(portfolio.layers.size());
    for (std::size_t layer_index = 0; layer_index < portfolio.layers.size(); ++layer_index) {
      const Layer& layer = portfolio.layers[layer_index];
      LayerPlan<V> plan;
      plan.layer = &layer;
      plan.terms = detail::LayerTermsV<V>::from(layer.terms);
      if (ylt != nullptr) plan.losses = ylt->layer_losses(layer_index);
      if (replay_ != nullptr) {
        // A replay reads the ground-up cache, never the ELTs: no lookup
        // tables to build.
        plan.replay = replay_->layer(layer_index);
        plans_.push_back(std::move(plan));
        continue;
      }
      if (SparseLayerTable::wanted(layer)) {
        obs::Span span("kernel.sparse_layer_build", "kernel");
        plan.sparse = std::make_unique<const SparseLayerTable>(layer);
      } else {
        plan.direct = detail::direct_view(layer);
        plan.elt_terms.reserve(layer.elts.size());
        for (const LayerElt& layer_elt : layer.elts) {
          plan.elt_terms.push_back(detail::EltTermsV<V>::from(layer_elt.terms));
        }
      }
      if (obs::enabled()) {
        for (const LayerElt& layer_elt : layer.elts) {
          elt_lookups_.push_back(&obs::TelemetryRegistry::global().counter(
              "elt." + std::string(elt::to_string(layer_elt.lookup->kind())) + ".lookups"));
        }
      }
      plans_.push_back(std::move(plan));
    }
  }

  void run_range(std::uint64_t first, std::uint64_t last,
                 TrialKernelScratch& scratch) const override {
    const std::span<const std::uint64_t> offsets = yet_->offsets();
    const yet::EventId* all_events = yet_->events().data();

    // Telemetry is flushed once per run_range call (= one task / launch
    // slice), never per block or per event: the flag is sampled here and
    // the hot loop below is untouched when disabled.
    const bool telemetry = obs::enabled();
    obs::Histogram* block_hist =
        telemetry ? &obs::TelemetryRegistry::global().histogram("kernel.block_ns") : nullptr;
    std::uint64_t blocks = 0;
    std::uint64_t replayed_entries = 0;  // cached entries folded (delta replay)

    // Completed work is flushed whether the range finishes or is cancelled
    // mid-way — the per-block counters must never claim trials that did not
    // run.
    const auto flush_telemetry = [&](std::uint64_t up_to) {
      if (!telemetry || blocks == 0) return;
      obs::TelemetryRegistry& registry = obs::TelemetryRegistry::global();
      registry.counter("kernel.blocks").add(blocks);
      registry.counter("kernel.trials").add(up_to - first);
      registry.counter("kernel.events").add(offsets[up_to] - offsets[first]);
      if (replay_ != nullptr) {
        registry.counter("kernel.ground_up.replayed_events")
            .add(offsets[up_to] - offsets[first]);
        registry.counter("kernel.ground_up.replayed_entries").add(replayed_entries);
      }
      if (capture_ != nullptr) {
        registry.counter("kernel.ground_up.captured_events")
            .add(offsets[up_to] - offsets[first]);
      }
      // Neither route calls lookup_many, so the ELT lookups (one per ELT
      // per event) are counted here, under each ELT's kind; a replay has
      // none.
      for (obs::Counter* lookups : elt_lookups_) lookups->add(offsets[up_to] - offsets[first]);
    };

    for (std::uint64_t t0 = first, t1 = first; t0 < last; t0 = t1) {
      if (cancel_ != nullptr && cancel_->cancelled()) {
        // The cancellation checkpoint: charge the blocks this range will
        // not run (sink clamps ignored — an upper-bound partition count is
        // what the "work abandoned" counter is for), flush what did run,
        // and surface the token's reason. Counted unconditionally: a
        // cancelled quote must be attributable even on an untelemetered
        // service.
        const std::uint64_t remaining = (last - t0 + block_trials - 1) / block_trials;
        obs::TelemetryRegistry::global().counter("kernel.cancelled_blocks").add(remaining);
        flush_telemetry(t0);
        const StatusCode reason = cancel_->reason();
        throw StatusError(reason, "kernel: run cancelled between trial blocks (" +
                                      std::string(to_string(reason)) + ")");
      }
      t1 = std::min<std::uint64_t>(t0 + block_trials, last);
      if (sink_block_ != 0) {
        // Clamp the block at the next sink block (= shard) boundary.
        const std::uint64_t boundary = (t0 / sink_block_ + 1) * sink_block_;
        t1 = std::min<std::uint64_t>(t1, boundary);
      }

      // Stream the head of the NEXT block's event ids toward the cache while
      // this block computes (16 u32 ids per 64-byte line). The burst is
      // capped: past ~4 KB the lines would be evicted again before the
      // multi-layer compute reaches them. A replay block never reads event
      // ids (combined losses come from the ground-up cache), so the
      // prefetch is skipped.
      if (replay_ == nullptr) {
        constexpr std::uint64_t kPrefetchIds = 1024;  // 64 cache lines
        const std::uint64_t n1 = std::min<std::uint64_t>(t1 + block_trials, last);
        const std::uint64_t next_end =
            std::min<std::uint64_t>(offsets[n1], offsets[t1] + kPrefetchIds);
        for (std::uint64_t p = offsets[t1]; p < next_end; p += 16) {
          simd::prefetch_read(all_events + p);
        }
      }

      {
        obs::ScopedTimer block_timer(block_hist);
        replayed_entries += run_block(t0, t1, scratch);
      }
      ++blocks;
    }

    flush_telemetry(last);
  }

 private:
  /// Runs trials [t0, t1) of every layer; returns the ground-up entries a
  /// replay folded (0 otherwise). An instrumented launch stamps the phase
  /// boundaries per chunk and layer (PhaseBreakdown has the definitions).
  std::uint64_t run_block(std::uint64_t t0, std::uint64_t t1,
                          TrialKernelScratch& scratch) const {
    const std::span<const std::uint64_t> offsets = yet_->offsets();
    const std::uint64_t ev0 = offsets[t0];
    const std::size_t count = static_cast<std::size_t>(offsets[t1] - ev0);
    const yet::EventId* events = yet_->events().data() + ev0;
    const float* times = yet_->times().data() + ev0;
    const std::size_t num_block_trials = static_cast<std::size_t>(t1 - t0);
    if (fault::should_inject(fault::sites::kKernelAlloc)) throw std::bad_alloc();
    if (sink_ != nullptr) scratch.block_losses.resize(plans_.size() * num_block_trials);
    PhaseStamps stamps(instrument_ ? &scratch.phases : nullptr);
    std::uint64_t folded = 0;

    if (replay_ != nullptr) {
      for (std::size_t layer_index = 0; layer_index < plans_.size(); ++layer_index) {
        folded += replay_trials<V>(plans_[layer_index], replay_->word_starts(),
                                   yet_->times().data(), window_, offsets, t0, t1,
                                   scratch.combined,
                                   layer_row(layer_index, t0, num_block_trials, scratch));
        stamps.charge(&PhaseBreakdown::layer_seconds);
      }
    } else {
      const std::size_t chunk = event_chunk_ != 0 ? event_chunk_ : count;
      scratch.combined.resize(count);
      double* combined = scratch.combined.data();
      for (std::size_t layer_index = 0; layer_index < plans_.size(); ++layer_index) {
        const LayerPlan<V>& plan = plans_[layer_index];
        // Phase 1+2: ELT lookups + financial terms across ELTs, then
        // occurrence terms — staged in event_chunk-bounded spans (the whole
        // block when unconstrained).
        std::uint64_t capture_trial = t0;
        if (capture_ != nullptr) {
          begin_capture(t0, t1, scratch);
          stamps.charge(&PhaseBreakdown::output_seconds);
        }
        for (std::size_t c0 = 0; c0 < count; c0 += chunk) {
          const std::size_t n = std::min(chunk, count - c0);
          if (plan.sparse) {
            plan.sparse->combine(events + c0, n, combined + c0);
          } else {
            combine_elts_direct<V>(plan, events + c0, n, combined + c0);
          }
          stamps.charge(&PhaseBreakdown::lookup_seconds);
          if (capture_ != nullptr) {
            // Capture between combine and the in-place occurrence terms:
            // this chunk's slice is final combined losses right here.
            capture_chunk(combined, c0, n, offsets, capture_->word_starts(), t0, capture_trial,
                          scratch.capture_words.data(), scratch.capture_values);
            stamps.charge(&PhaseBreakdown::output_seconds);
          }
          apply_occurrence_terms<V>(plan, combined + c0, n);
          stamps.charge(&PhaseBreakdown::layer_seconds);
        }
        if (capture_ != nullptr) {
          capture_->add_segment(layer_index, t0, t1, scratch.capture_words,
                                scratch.capture_values);
          stamps.charge(&PhaseBreakdown::output_seconds);
        }
        aggregate_trials(plan.layer->terms, combined, times, window_, offsets, t0, t1, ev0,
                         layer_row(layer_index, t0, num_block_trials, scratch));
        stamps.charge(&PhaseBreakdown::layer_seconds);
      }
    }

    if (sink_ != nullptr) {
      // Sink emission: a memcpy for a materialized sink, a shard pin +
      // scatter (possibly faulting) for a sharded one.
      for (std::size_t layer_index = 0; layer_index < plans_.size(); ++layer_index) {
        sink_->emit(layer_index, t0,
                    {scratch.block_losses.data() + layer_index * num_block_trials,
                     num_block_trials});
      }
      stamps.charge(&PhaseBreakdown::output_seconds);
    }
    return folded;
  }

  /// Where layer `layer_index`'s trial losses for block [t0, t0 + n) land:
  /// the staged block row in sink mode, else the YLT row itself.
  double* layer_row(std::size_t layer_index, std::uint64_t t0, std::size_t n,
                    TrialKernelScratch& scratch) const {
    return sink_ != nullptr ? scratch.block_losses.data() + layer_index * n
                            : plans_[layer_index].losses.data() + t0;
  }

  /// Resets the scratch capture segment for one layer of block [t0, t1):
  /// zeroed bitmap words, no values.
  void begin_capture(std::uint64_t t0, std::uint64_t t1, TrialKernelScratch& scratch) const {
    const std::span<const std::uint64_t> word_starts = capture_->word_starts();
    scratch.capture_words.assign(static_cast<std::size_t>(word_starts[t1] - word_starts[t0]), 0);
    scratch.capture_values.clear();
  }

  std::vector<LayerPlan<V>> plans_;
  // elt.<kind>.lookups of every ELT across the layers, resolved at
  // construction; empty unless telemetry was on then.
  std::vector<obs::Counter*> elt_lookups_;
  const yet::YearEventTable* yet_;
  CoverageWindow window_storage_;
  const CoverageWindow* window_ = nullptr;  // null = full year
  std::size_t event_chunk_;
  bool instrument_;
  GroundUpLossCache* capture_;        // null = no capture
  const GroundUpLossCache* replay_;   // null = full run
  const CancelToken* cancel_;         // null = never cancelled
  YltSink* sink_;
  std::uint64_t sink_block_;
};

}  // namespace
}  // namespace are::core
