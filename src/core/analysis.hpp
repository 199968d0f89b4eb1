#pragma once

// Unified engine API — the single front door to the aggregate analysis.
// The paper's contribution is one algorithm mapped onto many execution
// strategies; this header makes that literal: every engine name is a row
// of the constant kEnginePresets table, i.e. a fixed parameterisation of
// the one trial-block kernel (core/trial_kernel.hpp) — a KernelLaunch
// schedule plus a few bits saying which AnalysisConfig knobs feed the
// kernel. Callers build an AnalysisRequest (portfolio + YET +
// AnalysisConfig) and call run(); which strategy executes is data, so an
// engines x window x instrumentation sweep is a loop over configs.
//
// run_sequential (core/engine.hpp) remains as the bit-identity reference
// that equivalence tests pin the presets against.

#include <array>
#include <cstddef>
#include <optional>
#include <string>
#include <string_view>

#include "core/cancel.hpp"
#include "core/coverage_window.hpp"
#include "core/engine.hpp"
#include "core/trial_kernel.hpp"
#include "simd/dispatch.hpp"

namespace are::core {

/// Every engine name. The enumerators are stable identifiers; their
/// canonical string names live in kEnginePresets.
enum class EngineKind {
  kSequential = 0,  ///< reference implementation, the bit-identity anchor
  kParallel,        ///< thread-pool trial parallelism (paper's multi-core)
  kChunked,         ///< event-chunked kernel (CPU analogue of the GPU kernel)
  kOpenMp,          ///< OpenMP directives (falls back to thread pool)
  kSimd,            ///< lane-parallel batch engine (one trial per lane)
  kWindowed,        ///< sequential with a mid-year coverage window
  kInstrumented,    ///< sequential, always collecting the Fig-6b phases
  kFused,           ///< trial-tiled single-pass engine: all layers per tile
};

/// One engine name as a constant kernel parameterisation. Every preset
/// applies AnalysisConfig::window, collect_phases, tile_trials, delta
/// capture/replay, cancellation, and sharded output the same way (they are
/// kernel features); a preset only fixes how blocks are scheduled and which
/// engine-specific knobs reach the kernel.
struct EnginePreset {
  EngineKind kind = EngineKind::kSequential;
  /// Canonical name for the CLI and configs ("seq", "parallel", ...).
  std::string_view name;
  /// One-line description for list-engines.
  std::string_view summary;
  KernelLaunch::Schedule schedule = KernelLaunch::Schedule::kSerial;
  /// Runs the resolved SIMD lane type (AnalysisConfig::simd_extension,
  /// see resolve_simd_extension) instead of scalar lanes.
  bool lanes = false;
  /// Stages AnalysisConfig::chunk_size events at a time (Fig 5a's knob).
  bool event_chunks = false;
  /// Always fills the Fig-6b breakdown, as if collect_phases were set.
  bool instrument = false;
  /// YLT is byte-for-byte equal to kSequential's for any full-year request
  /// — the contract CI enforces by diffing CSVs against seq. False only
  /// for windowed, whose purpose is a mid-year window.
  bool bit_identical_to_sequential = true;

  /// Pool and costed schedules run on a borrowed AnalysisConfig::pool;
  /// serial and OpenMP schedules own their threads and reject one.
  constexpr bool accepts_pool() const noexcept {
    return schedule == KernelLaunch::Schedule::kPool ||
           schedule == KernelLaunch::Schedule::kCosted;
  }
};

/// The engine names, in list-engines order.
inline constexpr std::array<EnginePreset, 8> kEnginePresets{{
    {.kind = EngineKind::kSequential,
     .name = "seq",
     .summary = "sequential reference engine (the bit-identity anchor)"},
    {.kind = EngineKind::kParallel,
     .name = "parallel",
     .summary = "thread-pool trial parallelism (static/dynamic/guided partition)",
     .schedule = KernelLaunch::Schedule::kPool},
    {.kind = EngineKind::kChunked,
     .name = "chunked",
     .summary = "event-chunked kernel staging, the CPU analogue of the paper's GPU kernel",
     .schedule = KernelLaunch::Schedule::kPool,
     .event_chunks = true},
    {.kind = EngineKind::kOpenMp,
     .name = "openmp",
     .summary = "OpenMP trial parallelism (paper's multi-core implementation)",
     .schedule = KernelLaunch::Schedule::kOpenMp},
    {.kind = EngineKind::kSimd,
     .name = "simd",
     .summary = "lane-parallel batch engine: the kernel at the resolved vector width",
     .schedule = KernelLaunch::Schedule::kPool,
     .lanes = true},
    {.kind = EngineKind::kWindowed,
     .name = "windowed",
     .summary = "sequential engine with a mid-year coverage window",
     .bit_identical_to_sequential = false},
    {.kind = EngineKind::kFused,
     .name = "fused",
     .summary = "trial-tiled single-pass engine: all layers per tile, cost-aware "
                "scheduling, widest lanes",
     .schedule = KernelLaunch::Schedule::kCosted,
     .lanes = true},
    {.kind = EngineKind::kInstrumented,
     .name = "instrumented",
     .summary = "sequential engine that always collects the Fig-6b phase breakdown",
     .instrument = true},
}};

/// The preset of an engine kind (every kind has exactly one).
const EnginePreset& engine_preset(EngineKind kind) noexcept;

/// Name lookup for the CLI and the service; throws std::invalid_argument
/// listing the known names, so typos are self-explanatory.
const EnginePreset& engine_preset(std::string_view name);

/// Canonical name of the engine kind ("seq", "parallel", ...).
std::string_view to_string(EngineKind kind) noexcept;

/// The lane type a lanes preset executes, and WHY — the sentence the
/// instrumentation note and --verbose surface: explicit request, the
/// ARE_SIMD_EXT override, or the cpuid / compiled-in cap.
struct SimdResolution {
  simd::Extension extension = simd::Extension::kScalar;
  std::string note;
};

/// Resolves a requested extension. std::nullopt means auto: the runtime
/// dispatch decision (simd::best_extension(), which honours ARE_SIMD_EXT),
/// whatever the portfolio — memory-bound direct layers no longer gather
/// wide (they run from core::SparseLayerTable), so there is nothing to
/// narrow for. Throws std::invalid_argument for an extension not runnable
/// on this (binary, host). Never changes results: every extension is
/// bit-identical.
SimdResolution resolve_simd_extension(std::optional<simd::Extension> requested);

/// Per-run facts written back through AnalysisConfig::instrumentation.
struct InstrumentationSink {
  /// The engine that executed the request.
  std::optional<EngineKind> engine_used;

  /// Lanes presets (simd, fused): the extension that actually executed
  /// after resolve_simd_extension.
  std::optional<simd::Extension> simd_extension_used;

  /// Lanes presets: WHY that extension ran (SimdResolution::note);
  /// --verbose prints it.
  std::optional<std::string> simd_resolution_note;

  /// Fig-6b phase attribution and the paper's access counts, filled when
  /// the run collected phases (collect_phases, or the instrumented preset).
  /// The counts are predict_access_counts(); on a delta replay its
  /// elt_lookups and financial_applications are 0.
  std::optional<PhaseBreakdown> phases;
  std::optional<AccessCounts> accesses;
};

/// Where the output YLT lives. kMaterialized is the classic in-memory
/// trials x layers YearLossTable returned by run(); kSharded stores losses
/// in fixed trial-range shards behind a disk-spilling ShardStore
/// (src/shard/) and is executed through shard::run_sharded / run_to_sink —
/// the out-of-core path for trial counts whose full table would not fit
/// the memory budget.
enum class OutputMode {
  kMaterialized = 0,
  kSharded,
};

/// Runtime-telemetry collection for one run (src/obs/). Both flags enable
/// the process-wide collectors for the duration of the run (RAII-scoped
/// inside run()/run_to_sink(), restoring the prior state), so concurrent
/// runs see each other's requests; long-lived hosts (the CLI, the future
/// resident service) instead call obs::set_enabled()/set_trace_enabled()
/// directly and leave these off. Off by default: the disabled hot path is
/// bit-identical and within noise of an untelemetered build.
struct TelemetryOptions {
  /// Collect counters/gauges/histograms into obs::TelemetryRegistry::global().
  bool counters = false;
  /// Record Chrome-trace spans into obs::TraceBuffer::global().
  bool trace = false;
};

/// Knobs of the sharded output mode (read when output == kSharded).
struct ShardingOptions {
  /// Trials per shard. Shard boundaries also clamp the fused engine's tile
  /// boundaries, so every finished tile lands in exactly one shard.
  std::uint64_t shard_trials = 4096;
  /// Resident-shard budget in bytes; 0 = unlimited (nothing spills).
  std::size_t memory_budget_bytes = 0;
  /// Base directory for spilled shards (each run spills into its own
  /// unique subdirectory, removed afterwards); empty = the system temp
  /// dir.
  std::string spill_dir;
};

/// Composable execution configuration. One struct covers every engine;
/// the engine's preset decides which engine-specific knobs reach the
/// kernel, and run() rejects what a preset cannot honour (a borrowed pool
/// on a serial or OpenMP schedule) instead of silently ignoring it.
struct AnalysisConfig {
  EngineKind engine = EngineKind::kParallel;

  /// Worker threads for the threaded schedules (pool, costed, OpenMP):
  /// 0 = hardware concurrency, 1 = single-threaded.
  std::size_t num_threads = 0;

  /// Pool and costed schedules: trial-range partitioning strategy and, for
  /// dynamic/guided pool schedules, the number of trials per work item.
  parallel::Partition partition = parallel::Partition::kStatic;
  std::size_t partition_chunk = 256;

  /// Event-chunked presets (chunked): events staged per scratch chunk (the
  /// paper's Fig-5a knob).
  std::size_t chunk_size = 4;

  /// Trials per kernel block (the fused engine's tile: every layer is
  /// processed over one block's events before moving on). 0 = derive from
  /// the ELT footprint and events/trial (core::default_tile_trials).
  std::size_t tile_trials = 0;

  /// Lanes presets (simd, fused): lane type to run; std::nullopt = auto
  /// (see resolve_simd_extension).
  std::optional<simd::Extension> simd_extension;

  /// Coverage window within the contractual year, applied by every engine.
  /// Absent = full year.
  std::optional<CoverageWindow> window;

  /// When set, run() records execution facts here and delivers the phase
  /// breakdown of runs that collect one. Borrowed, not owned.
  InstrumentationSink* instrumentation = nullptr;

  /// Request the Fig-6b phase breakdown; needs a non-null `instrumentation`
  /// sink to receive it. The instrumented preset always collects it; other
  /// engines stamp the phase boundaries in their block loop only when this
  /// is set, so the default hot path stays untimed.
  bool collect_phases = false;

  /// Output placement. run() serves kMaterialized only; kSharded runs go
  /// through shard::run_sharded (or run_to_sink with your own sink).
  OutputMode output = OutputMode::kMaterialized;
  ShardingOptions sharding;

  /// Runtime counters/spans for this run (see TelemetryOptions).
  TelemetryOptions telemetry;

  /// Borrowed thread pool, reused across runs (the real-time pricing path);
  /// requires a preset that accepts_pool(). nullptr = the engine owns its
  /// threads.
  parallel::ThreadPool* pool = nullptr;

  /// Delta execution (core/trial_kernel.hpp GroundUpLossCache; the resident
  /// service's fast path — see src/service/). Capture: this run additionally
  /// records its combined pre-occurrence-terms losses into the cache (an
  /// unsealed cache shaped for the portfolio's layers and the YET; the run
  /// seals it). Replay: this run skips the fetch/lookup/financial phases
  /// and folds the sealed cache's losses instead — valid only when the portfolio's ELT sets and per-ELT
  /// FinancialTerms are unchanged since capture (LayerTerms and the window
  /// may differ), bit-identical to a cold run by construction. Any engine
  /// accepts either pointer (they parameterize the shared kernel); setting
  /// both is rejected. Borrowed, not owned.
  GroundUpLossCache* ground_up_capture = nullptr;
  const GroundUpLossCache* ground_up_replay = nullptr;

  /// Cooperative cancellation + deadline for this run (core/cancel.hpp).
  /// The kernel checks the token between trial blocks; a fired token makes
  /// the run throw core::StatusError with the token's reason
  /// (kDeadlineExceeded / kCancelled) and produce no output. Borrowed, not
  /// owned; null = never cancelled.
  const CancelToken* cancel = nullptr;

  /// Fault-injection sites to arm for the duration of this run, as a
  /// comma-separated SITE=SPEC list (src/fault/fault_injection.hpp) —
  /// "shard.spill_write=always,io.read=every:3". Armed process-wide
  /// (RAII-scoped inside run()/run_to_sink()); empty = no injection.
  /// Test/chaos tooling only.
  std::string faults;

  /// Engine-independent sanity checks; throws std::invalid_argument on a
  /// malformed window, partition_chunk == 0, chunk_size == 0, or
  /// sharding.shard_trials == 0 (tile_trials == 0 is valid: it selects the
  /// tile-size heuristic). Preset checks (borrowed pool, extension
  /// availability) happen in run().
  void validate() const;
};

/// Everything run() needs: the inputs by reference (portfolio and YET are
/// large and immutable during a run) plus the execution config by value.
struct AnalysisRequest {
  const Portfolio& portfolio;
  const yet::YearEventTable& yet_table;
  AnalysisConfig config{};
};

/// The front door: validates the config, turns the engine's preset into a
/// kernel config + launch, rejects what the preset cannot honour
/// (std::invalid_argument), and runs the trial kernel. Output YLTs of
/// presets with bit_identical_to_sequential are bit-identical to
/// EngineKind::kSequential for the same request. Serves
/// OutputMode::kMaterialized only — a sharded config is redirected (by
/// error message) to shard::run_sharded, which owns the sharded table.
YearLossTable run(const AnalysisRequest& request);

/// Sink front door: same checks as run(), then the kernel emits finished
/// trial-range blocks into `sink` instead of an owned YearLossTable. Every
/// preset can; those with bit_identical_to_sequential deliver exactly the
/// bytes run_sequential would have produced for every cell.
void run_to_sink(const AnalysisRequest& request, YltSink& sink);

}  // namespace are::core
