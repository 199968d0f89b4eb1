#include "core/analysis.hpp"

#include <stdexcept>
#include <string>

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

bool runnable(simd::Extension extension) noexcept {
  return simd::mask_has(simd::runnable_extensions(), extension);
}

}  // namespace

SimdResolution resolve_simd_extension(std::optional<simd::Extension> requested) {
  SimdResolution resolved;
  if (requested) {
    resolved.extension = *requested;
    resolved.note = "requested explicitly";
  } else {
    resolved.extension = simd::best_extension();
    resolved.note = simd::best_extension_reason();
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
    SimdResolution simd = resolve_simd_extension(config.simd_extension);
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
  run_trial_kernel(request.portfolio, request.yet_table, kernel, launch, ylt, sink,
                   deliver ? &phases : nullptr);
  if (deliver) {
    facts->phases = phases;
    // The paper's algorithmic counts are a function of the inputs; a
    // replay looks nothing up and applies no ELT terms.
    AccessCounts accesses = predict_access_counts(request.portfolio, request.yet_table);
    if (config.ground_up_replay != nullptr) {
      accesses.elt_lookups = 0;
      accesses.financial_applications = 0;
    }
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
