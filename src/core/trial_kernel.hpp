#pragma once

// The unified trial-block kernel — the one loop nest behind every engine.
//
// The paper's aggregate analysis is a single computation: walk YET trials,
// look up each event's loss in the layer's ELTs, apply financial/occurrence/
// aggregate terms, land the net trial loss in the YLT. This layer implements
// that computation exactly once, over one contiguous *block* of trials for
// all layers, with every cross-cutting feature built in:
//
//   - scalar and simd::VecD term paths (one templated body; the lane type is
//     a runtime choice, resolved once at kernel construction),
//   - an optional CoverageWindow (mid-year coverage),
//   - optional per-phase timers (the Fig-6b breakdown),
//   - optional event-chunked staging (the chunked engine's Fig-5a knob),
//   - delivery either straight into a YearLossTable or into a YltSink
//     (finished blocks never cross sink.block_trials() boundaries, so a
//     sharded sink receives each block into exactly one shard).
//
// There are no engine implementations beyond this kernel: an engine name is
// a constant preset (core/analysis.hpp kEnginePresets) that fixes the
// schedule (serial / parallel_for / parallel_for_costed / OpenMP) and lane
// type, and core::run() calls run_trial_kernel() with it. Every
// (preset x threads x lane x sink) combination produces bytes identical to
// the sequential reference, because every combination runs this body: per
// (layer, trial) cell the arithmetic and its order never change, only
// which cells share a register or a thread.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "core/cancel.hpp"
#include "core/coverage_window.hpp"
#include "core/engine.hpp"
#include "core/ylt_sink.hpp"
#include "parallel/parallel_for.hpp"
#include "simd/dispatch.hpp"

namespace are::core {

/// Name of a lane type ("scalar", "sse2", "avx2", "avx512", "neon") — the
/// `kernel.simd_ext{ext=…}` label and what --verbose reports.
inline std::string_view to_string(simd::Extension extension) noexcept {
  return simd::name_of(extension);
}

/// True when the library was compiled with OpenMP support; without it the
/// OpenMP schedule runs the bit-identical thread-pool fallback.
bool openmp_available() noexcept;

/// Per-(layer, event-occurrence) *combined* losses: the exact intermediate
/// the kernel produces after the ELT lookups and per-ELT financial terms
/// have been folded across a layer's ELTs, but BEFORE the layer's
/// occurrence terms touch the buffer. This is the delta-execution cache of
/// the resident service (src/service/): the values depend on the YET and
/// the layers' ELT sets + FinancialTerms, but not on LayerTerms or on the
/// coverage window (windows only filter inside the aggregate recurrence).
/// A request that differs from a captured run only in layer terms or
/// window can therefore skip the fetch + lookup + financial phases — ~78%
/// of runtime per Fig 6b — and replay the cached values through occurrence
/// terms + aggregation, bit-identical to a full run (capture keeps the very
/// doubles the full run computes).
///
/// Layout: sparse, indexed by trial. Most occurrences of a book miss every
/// ELT of a layer, so most combined losses are +0.0; only the others are
/// kept. Per layer:
///   - a presence bitmap in which every trial's bits start on a new 64-bit
///     word (word_starts(), shared by all layers: trial t owns words
///     [word_starts[t], word_starts[t+1]), bit k = the trial's k-th event);
///   - value_starts: trial t's first entry in the packed values;
///   - values: every captured loss whose bit pattern is not +0.0, in event
///     order. A -0.0 is kept, so densifying the cache gives back the exact
///     bytes the kernel computed.
///
/// Sealing: capture runs block by block. Each block hands the cache one
/// segment per layer (add_segment: the block's bitmap words and packed
/// values), concurrently from any worker; run_trial_kernel seals the cache
/// after every block has run, concatenating the segments in trial order.
/// A cache whose segments do not tile [0, num_trials) stays unsealed, and
/// the kernel refuses to replay an unsealed cache (std::invalid_argument).
/// A sealed cache is immutable, so one cache serves many concurrent replays.
///
/// Why replay may skip the +0.0 entries exactly: for valid LayerTerms the
/// occurrence loss of a +/-0.0 ground-up loss is +0.0 (excess_of_loss
/// returns +0.0 whenever loss - retention <= 0, and the vector excess_v in
/// core/simd_terms.hpp is that form exactly). TrialAccumulator's
/// cumulative and trial losses start at +0.0 and only ever add values >= 0,
/// so neither can hold -0.0, and adding a +/-0.0 leaves both unchanged. The
/// capped cumulative is then the one the previous occurrence produced (or
/// +0.0 before the first), so the increment is capped - capped = +0.0 and
/// the trial loss keeps its bits. Folding only the present entries
/// therefore gives the bytes a fold over every occurrence gives.
class GroundUpLossCache {
 public:
  /// One sealed layer, read-only.
  struct LayerView {
    std::span<const std::uint64_t> words;         ///< presence bitmap
    std::span<const std::uint64_t> value_starts;  ///< num_trials + 1 entries
    std::span<const double> values;               ///< the packed losses
  };

  /// An empty, unsealed cache shaped for `num_layers` layers over `yet_table`.
  GroundUpLossCache(std::size_t num_layers, const yet::YearEventTable& yet_table);

  std::size_t num_layers() const noexcept { return layers_.size(); }
  std::uint64_t num_trials() const noexcept { return word_starts_.size() - 1; }
  std::uint64_t total_events() const noexcept { return total_events_; }

  /// Trial t's bitmap words are [word_starts()[t], word_starts()[t + 1]) in
  /// every layer (num_trials + 1 entries).
  std::span<const std::uint64_t> word_starts() const noexcept { return word_starts_; }

  /// Capture: block [first, last)'s segment of one layer — the trials'
  /// bitmap words (word_starts[last] - word_starts[first] of them) and the
  /// packed losses their set bits describe. Thread-safe. Throws
  /// std::invalid_argument on a sealed cache or an out-of-shape segment.
  void add_segment(std::size_t layer_index, std::uint64_t first, std::uint64_t last,
                   std::span<const std::uint64_t> words, std::span<const double> values);

  /// Concatenates the segments in trial order and drops them. Returns
  /// sealed(): false (the segments kept as they were) unless every layer's
  /// segments tile [0, num_trials) exactly with consistent value counts.
  bool seal();
  bool sealed() const noexcept { return sealed_; }

  /// A sealed layer. Throws std::logic_error on an unsealed cache.
  LayerView layer(std::size_t layer_index) const;

  /// Present entries across every sealed layer (losses that are not +0.0).
  std::uint64_t entries() const noexcept;

  /// Bytes held: the word starts, the sealed layers, and any segments not
  /// yet sealed. The `service.ground_up_bytes` gauge reports this for
  /// published (sealed) caches.
  std::size_t memory_bytes() const noexcept;

  /// Upper bound on memory_bytes() of any sealed cache of this shape — the
  /// admission-side check before a capture runs: per layer 8 B per event,
  /// 1 bit per event rounded up to whole words per trial, and the
  /// per-trial value starts; plus the shared per-trial word starts.
  static std::size_t estimate_bytes(std::size_t num_layers,
                                    const yet::YearEventTable& yet_table) noexcept;

 private:
  struct Segment {
    std::uint64_t first = 0;
    std::uint64_t last = 0;
    std::vector<std::uint64_t> words;
    std::vector<double> values;
  };
  struct SealedLayer {
    std::vector<std::uint64_t> words;
    std::vector<std::uint64_t> value_starts;
    std::vector<double> values;
  };

  std::uint64_t total_events_ = 0;
  std::vector<std::uint64_t> word_starts_;
  std::vector<SealedLayer> layers_;
  mutable std::mutex mutex_;                    // guards segments_ during capture
  std::vector<std::vector<Segment>> segments_;  // per layer, unsealed
  bool sealed_ = false;
};

/// What the kernel computes per block — the cross-cutting knobs every
/// driver shares. Scheduling lives in KernelLaunch, not here.
struct TrialKernelConfig {
  /// Lane type for the vectorized term phases; kScalar runs the same body
  /// one element at a time. Must be runnable on this host (the constructor
  /// throws otherwise); core::resolve_simd_extension picks one.
  simd::Extension extension = simd::Extension::kScalar;

  /// Coverage window; absent or full-year = every occurrence counts.
  std::optional<CoverageWindow> window;

  /// Maximum trials per kernel block (the fused engine's tile size). The
  /// staged per-event buffers are proportional to a block's event count, so
  /// blocks bound scratch memory. 0 = derive from the ELT footprint and
  /// events/trial (default_tile_trials).
  std::size_t block_trials = 0;

  /// When non-zero, the combine/occurrence phases stage at most this many
  /// events at a time (the chunked engine's events-per-chunk knob, Fig 5a).
  /// 0 = stage the whole block at once. Never changes the output bytes.
  std::size_t event_chunk = 0;

  /// Stamp the Fig-6b phase boundaries in the block loop, per chunk and
  /// layer, into each worker's TrialKernelScratch::phases. The loop is the
  /// one every launch runs, so the bytes and the work do not change;
  /// PhaseBreakdown defines what each phase covers.
  bool instrument = false;

  /// Capture: every block additionally hands this cache its combined
  /// per-event losses (post-financial-terms, pre-occurrence-terms) as one
  /// sparse segment per layer; run_trial_kernel seals the cache once every
  /// block has run. The cache must be unsealed and shaped for the run
  /// (portfolio layers x the YET's trials and events); the kernel
  /// constructor throws otherwise. Never changes the output bytes.
  GroundUpLossCache* ground_up_capture = nullptr;

  /// Replay (delta execution): skip the fetch/lookup/financial phases and
  /// fold each trial's present cached losses through occurrence terms +
  /// aggregation instead. Produces exactly the bytes a full run with the
  /// same layer terms and window would — and performs zero ELT lookups
  /// (`elt.*.lookups` and `kernel.phase.lookup_ns` stay 0). Mutually
  /// exclusive with ground_up_capture; the cache must be sealed and
  /// shape-checked like it.
  const GroundUpLossCache* ground_up_replay = nullptr;

  /// Cooperative cancellation: every run_range checks the token once per
  /// block (the kernel's natural preemption quantum) and, when cancelled,
  /// counts the blocks it will not run into `kernel.cancelled_blocks` and
  /// throws StatusError carrying the token's reason (kDeadlineExceeded /
  /// kCancelled). The resident service arms this with each quote's
  /// deadline; run_trial_kernel additionally chains an internal token so
  /// one worker's failure stops the others at their next block boundary.
  /// Null = never cancelled, zero per-block cost beyond a pointer test.
  const CancelToken* cancel = nullptr;
};

/// Per-worker scratch, reused across every block a worker executes (via
/// parallel::TaskScratch or a per-thread local): buffers grow to the block
/// high-water mark during the first blocks, then the hot path allocates
/// nothing.
struct TrialKernelScratch {
  std::vector<double> combined;  // per-event combined loss, then net of occurrence terms
  std::vector<double> block_losses;          // sink mode: layers x block trials, emitted per block
  std::vector<std::uint64_t> capture_words;  // capture: one layer's bitmap words for the block
  std::vector<double> capture_values;        // capture: one layer's packed losses for the block
  PhaseBreakdown phases;                     // instrumented mode: this worker's share
};

/// The kernel: immutable per-run execution state (per-layer direct views,
/// broadcast terms, output rows) behind a lane-width-erased interface.
/// run_range() may be called concurrently on disjoint trial ranges, each
/// with its own scratch.
class TrialBlockKernel {
 public:
  /// Validates the portfolio and window, resolves the lane type and block
  /// size. Exactly one of `ylt` / `sink` must be non-null: with a YLT the
  /// kernel writes layer rows in place; with a sink it stages each finished
  /// block and emits it as one span per layer, blocks clamped so they never
  /// cross sink.block_trials() boundaries.
  TrialBlockKernel(const Portfolio& portfolio, const yet::YearEventTable& yet_table,
                   const TrialKernelConfig& config, YearLossTable* ylt, YltSink* sink);
  ~TrialBlockKernel();

  TrialBlockKernel(const TrialBlockKernel&) = delete;
  TrialBlockKernel& operator=(const TrialBlockKernel&) = delete;

  /// Computes trials [first, last) for every layer: walks the range in
  /// blocks of at most block_trials() (clamped to sink boundaries), software-
  /// prefetching the head of the next block's event ids while the current
  /// block computes.
  void run_range(std::uint64_t first, std::uint64_t last, TrialKernelScratch& scratch) const;

  /// The resolved block size (config.block_trials, or the footprint
  /// heuristic when that was 0).
  std::size_t block_trials() const noexcept;

  /// The extension this kernel executes (config.extension).
  simd::Extension extension() const noexcept { return extension_; }

  /// Lane-width erasure (public so the .cpp's extension-templated bodies
  /// can derive from it; opaque to callers).
  struct Impl;

 private:
  std::unique_ptr<Impl> impl_;
  simd::Extension extension_ = simd::Extension::kScalar;
};

/// How kernel blocks are scheduled onto threads — together with
/// TrialKernelConfig this is the *entire* definition of an engine preset.
struct KernelLaunch {
  enum class Schedule {
    kSerial,  ///< one thread, one scratch (seq / windowed / instrumented)
    kPool,    ///< parallel_for over trials on a thread pool (parallel / chunked / simd)
    kCosted,  ///< parallel_for_costed over the YET offsets (fused): chunks
              ///< carry ~one block's worth of *events*, so skewed trial
              ///< lengths balance across workers
    kOpenMp,  ///< OpenMP `parallel for` over block indices; falls back to
              ///< kPool (bit-identical) when the build lacks OpenMP
  };

  Schedule schedule = Schedule::kSerial;
  /// Worker threads when the driver owns them; 0 = hardware concurrency.
  std::size_t num_threads = 0;
  /// Borrowed pool (kPool/kCosted); nullptr = own a pool of num_threads.
  parallel::ThreadPool* pool = nullptr;
  /// Trial-range partitioning (kPool: index chunks of `chunk` trials;
  /// kCosted: equal-cost chunks).
  parallel::Partition partition = parallel::Partition::kStatic;
  std::size_t chunk = 256;
};

/// The one kernel entry point: builds the kernel, schedules it per
/// `launch`, and (for instrumented configs) merges every worker's phase
/// timers into `phases` (assigned, not accumulated; may be null). Exactly
/// one of `ylt` / `sink` must be non-null.
void run_trial_kernel(const Portfolio& portfolio, const yet::YearEventTable& yet_table,
                      const TrialKernelConfig& config, const KernelLaunch& launch,
                      YearLossTable* ylt, YltSink* sink, PhaseBreakdown* phases = nullptr);

/// The block-size heuristic behind TrialKernelConfig::block_trials == 0
/// (historically the fused engine's tile heuristic): sizes the block so its
/// staged per-event working set (~20 B per event across ids, timestamps,
/// and the combined-loss buffer) fits the cache share a block can
/// realistically claim. Cache-regime aware: when the portfolio's lookup
/// tables themselves fit in cache the whole budget goes to the block; once
/// the tables far exceed it, lookups miss regardless and a smaller block
/// keeps the staged buffers from thrashing too. Clamped to [16, 4096].
std::size_t default_tile_trials(const Portfolio& portfolio,
                                const yet::YearEventTable& yet_table) noexcept;

}  // namespace are::core
