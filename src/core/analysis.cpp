#include "core/analysis.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "elt/direct_access_table.hpp"
#include "fault/fault_injection.hpp"
#include "obs/telemetry.hpp"

namespace are::core {

const EnginePreset& engine_preset(EngineKind kind) noexcept {
  for (const EnginePreset& preset : kEnginePresets) {
    if (preset.kind == kind) return preset;
  }
  return kEnginePresets.front();  // unreachable: every kind has a preset
}

const EnginePreset& engine_preset(std::string_view name) {
  std::string known;
  for (const EnginePreset& preset : kEnginePresets) {
    if (preset.name == name) return preset;
    if (!known.empty()) known += ", ";
    known += preset.name;
  }
  throw std::invalid_argument("unknown engine '" + std::string(name) +
                              "' (known engines: " + known + ")");
}

std::string_view to_string(EngineKind kind) noexcept { return engine_preset(kind).name; }

namespace {

/// Direct-table bytes a layer's lookups touch. Above this, gathers lose to
/// the cache hierarchy (lookups miss whatever the lane width, and wide
/// hardware gathers issue more uops per miss than scalar loads), so auto
/// narrows to SSE2 — which keeps the vectorized financial/layer phases but
/// gathers with plain loads. Measured crossover on Skylake-class parts is
/// between ~5 MB (still wins) and ~24 MB (loses).
constexpr std::size_t kWideLaneFootprintBytes = 6u << 20;

std::size_t max_layer_direct_footprint(const Portfolio& portfolio) noexcept {
  std::size_t max_bytes = 0;
  for (const Layer& layer : portfolio.layers) {
    if (!layer.all_direct_access()) continue;
    std::size_t bytes = 0;
    for (const LayerElt& layer_elt : layer.elts) {
      bytes += layer_elt.lookup->as_direct_access()->universe() * sizeof(double);
    }
    max_bytes = std::max(max_bytes, bytes);
  }
  return max_bytes;
}

bool runnable(simd::Extension extension) noexcept {
  return simd::mask_has(simd::runnable_extensions(), extension);
}

}  // namespace

SimdResolution resolve_simd_extension(const Portfolio& portfolio,
                                      std::optional<simd::Extension> requested) {
  SimdResolution resolved;
  if (requested) {
    resolved.extension = *requested;
    resolved.note = "requested explicitly";
  } else {
    resolved.extension = simd::best_extension();
    resolved.note = simd::best_extension_reason();
    // Memory-bound portfolios: narrow to SSE2 when wide gathers stop paying
    // (see kWideLaneFootprintBytes). An explicit ARE_SIMD_EXT override wins
    // over the heuristic: an operator pinning the extension is usually
    // measuring exactly this trade-off.
    const std::size_t footprint = max_layer_direct_footprint(portfolio);
    if (!simd::env_override() &&
        (resolved.extension == simd::Extension::kAvx2 ||
         resolved.extension == simd::Extension::kAvx512) &&
        footprint > kWideLaneFootprintBytes && runnable(simd::Extension::kSse2)) {
      resolved.note = "narrowed " + std::string(simd::name_of(resolved.extension)) +
                      " -> sse2: direct-table footprint " + std::to_string(footprint >> 20) +
                      " MB > " + std::to_string(kWideLaneFootprintBytes >> 20) +
                      " MB (wide gathers stop paying once every lookup misses)";
      resolved.extension = simd::Extension::kSse2;
    }
  }
  if (!runnable(resolved.extension)) {
    throw std::invalid_argument("simd extension '" +
                                std::string(simd::name_of(resolved.extension)) +
                                "' is not compiled into this binary or not supported by this "
                                "host's cpu");
  }
  return resolved;
}

void AnalysisConfig::validate() const {
  if (window) window->validate();
  if (partition_chunk == 0) {
    throw std::invalid_argument("AnalysisConfig: partition_chunk must be > 0");
  }
  if (chunk_size == 0) throw std::invalid_argument("AnalysisConfig: chunk_size must be > 0");
  // tile_trials == 0 is valid: the kernel derives the block size.
  if (sharding.shard_trials == 0) {
    throw std::invalid_argument("AnalysisConfig: sharding.shard_trials must be > 0");
  }
  if (ground_up_capture != nullptr && ground_up_replay != nullptr) {
    throw std::invalid_argument(
        "AnalysisConfig: ground_up_capture and ground_up_replay are mutually exclusive");
  }
}

namespace {

/// Shared path of both front doors: checks the request against its preset,
/// turns the preset into a kernel config + launch, runs the kernel, and
/// delivers the execution facts.
void execute(const AnalysisRequest& request, YearLossTable* ylt, YltSink* sink) {
  const AnalysisConfig& config = request.config;
  const EnginePreset& preset = engine_preset(config.engine);
  if (config.pool != nullptr && !preset.accepts_pool()) {
    throw std::invalid_argument("engine '" + std::string(preset.name) +
                                "' cannot reuse a borrowed thread pool (clear "
                                "AnalysisConfig::pool)");
  }
  InstrumentationSink* facts = config.instrumentation;
  if (config.collect_phases && facts == nullptr) {
    throw std::invalid_argument(
        "AnalysisConfig::collect_phases needs an InstrumentationSink to deliver the breakdown "
        "(set AnalysisConfig::instrumentation)");
  }
  const obs::RunScope telemetry(config.telemetry.counters, config.telemetry.trace);
  const fault::ScopedArm faults(config.faults);
  if (facts != nullptr) facts->engine_used = preset.kind;

  TrialKernelConfig kernel;
  kernel.window = config.window;
  kernel.block_trials = config.tile_trials;
  if (preset.event_chunks) kernel.event_chunk = config.chunk_size;
  kernel.instrument = config.collect_phases || preset.instrument;
  kernel.ground_up_capture = config.ground_up_capture;
  kernel.ground_up_replay = config.ground_up_replay;
  kernel.cancel = config.cancel;
  if (preset.lanes) {
    SimdResolution simd = resolve_simd_extension(request.portfolio, config.simd_extension);
    kernel.extension = simd.extension;
    if (facts != nullptr) {
      facts->simd_extension_used = simd.extension;
      facts->simd_resolution_note = std::move(simd.note);
    }
  }
  const KernelLaunch launch{.schedule = preset.schedule,
                            .num_threads = config.num_threads,
                            .pool = config.pool,
                            .partition = config.partition,
                            .chunk = config.partition_chunk};

  const bool deliver = kernel.instrument && facts != nullptr;
  PhaseBreakdown phases;
  AccessCounts accesses;
  run_trial_kernel(request.portfolio, request.yet_table, kernel, launch, ylt, sink,
                   deliver ? &phases : nullptr, deliver ? &accesses : nullptr);
  if (deliver) {
    facts->phases = phases;
    facts->accesses = accesses;
  }
}

}  // namespace

YearLossTable run(const AnalysisRequest& request) {
  request.config.validate();
  if (request.config.output == OutputMode::kSharded) {
    throw std::invalid_argument(
        "run() returns a materialized YLT; for OutputMode::kSharded call shard::run_sharded "
        "(or core::run_to_sink with your own sink)");
  }
  YearLossTable ylt = make_year_loss_table(request.portfolio, request.yet_table);
  execute(request, &ylt, nullptr);
  return ylt;
}

void run_to_sink(const AnalysisRequest& request, YltSink& sink) {
  request.config.validate();
  execute(request, nullptr, &sink);
}

}  // namespace are::core
