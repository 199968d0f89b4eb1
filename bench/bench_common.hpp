#pragma once

// Shared harness for the per-figure benchmark binaries.
//
// Scale: the paper's headline workload is 1M trials x 1000 events x 15 ELTs
// (15 billion lookups), minutes of wall time per point on one core. Every
// binary therefore defaults to a calibrated sub-scale that preserves the
// reported *shapes* (the algorithm is linear in every size parameter — see
// bench_fig2*), and honours ARE_BENCH_FULL=1 to run paper scale.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/analysis.hpp"
#include "elt/synthetic.hpp"
#include "obs/export.hpp"
#include "obs/telemetry.hpp"
#include "simd/dispatch.hpp"
#include "yet/generator.hpp"

namespace are::bench {

/// Every bench dispatches through the unified front door (core::run over
/// the engine presets); this helper trims the AnalysisRequest boilerplate so a
/// measured series is one line per config.
inline core::YearLossTable run(const core::Portfolio& portfolio,
                               const yet::YearEventTable& yet_table,
                               core::AnalysisConfig config = {}) {
  return core::run({portfolio, yet_table, std::move(config)});
}

inline bool full_scale() {
  const char* env = std::getenv("ARE_BENCH_FULL");
  return env != nullptr && std::strcmp(env, "0") != 0;
}

/// Workload sizes for the measured benchmarks.
struct Scale {
  std::size_t catalog_size;
  std::uint64_t trials;
  double events_per_trial;
  std::size_t elt_entries;

  static Scale current() {
    if (full_scale()) {
      // The paper's configuration: 2M-event catalog, 1M trials, 1000
      // events/trial, ELTs of 20K losses.
      return {2'000'000, 1'000'000, 1000.0, 20'000};
    }
    // Calibrated sub-scale: one engine pass in the hundreds of
    // milliseconds; all shape relationships preserved.
    return {200'000, 10'000, 200.0, 4'000};
  }
};

inline core::Portfolio make_portfolio(const Scale& scale, std::size_t num_layers,
                                      std::size_t elts_per_layer,
                                      elt::LookupKind kind = elt::LookupKind::kDirectAccess) {
  core::Portfolio portfolio;
  for (std::size_t l = 0; l < num_layers; ++l) {
    core::Layer layer;
    layer.id = static_cast<std::uint32_t>(l + 1);
    layer.terms.occurrence_retention = 500e3;
    layer.terms.occurrence_limit = 10e6;
    layer.terms.aggregate_retention = 1e6;
    layer.terms.aggregate_limit = 200e6;
    for (std::size_t e = 0; e < elts_per_layer; ++e) {
      elt::SyntheticEltConfig config;
      config.catalog_size = scale.catalog_size;
      config.entries = scale.elt_entries;
      config.elt_id = l * 1000 + e;
      core::LayerElt layer_elt;
      layer_elt.lookup =
          elt::make_lookup(kind, elt::make_synthetic_elt(config), scale.catalog_size);
      layer_elt.terms.occurrence_retention = 50e3;
      layer_elt.terms.share = 0.9;
      layer.elts.push_back(std::move(layer_elt));
    }
    portfolio.layers.push_back(std::move(layer));
  }
  return portfolio;
}

inline yet::YearEventTable make_yet(const Scale& scale, std::uint64_t trials,
                                    double events_per_trial) {
  yet::YetConfig config;
  config.num_trials = trials;
  config.events_per_trial = events_per_trial;
  config.count_model = yet::CountModel::kFixed;  // the paper's benchmark setup
  config.seed = 2012;
  return yet::generate_uniform_yet(config, scale.catalog_size);
}

/// Prints a machine-greppable series row shared by all figure benches:
///   [series] <figure>,<x-name>=<x>,<y-name>=<y>
inline void print_row(const char* figure, const char* x_name, double x, const char* y_name,
                      double y) {
  std::printf("[series] %s,%s=%g,%s=%.4f\n", figure, x_name, x, y_name, y);
}

inline void print_note(const char* text) { std::printf("[note] %s\n", text); }

// --- Machine-readable benchmark output ---------------------------------------
//
// Benches that track the perf trajectory across PRs write their measured
// points as a JSON array (e.g. bench_fused_tiling -> BENCH_fused.json); CI
// uploads the file as an artifact so regressions are visible run over run.

/// Build/host facts stamped into every BENCH_*.json as its `meta` object,
/// so artifacts from different CI legs (gcc vs clang, native vs baseline
/// SIMD) are comparable without reconstructing the leg from the file name.
inline std::string build_metadata_json() {
  std::string compiler =
#if defined(__clang__)
      "clang " + std::to_string(__clang_major__) + "." + std::to_string(__clang_minor__);
#elif defined(__GNUC__)
      "gcc " + std::to_string(__GNUC__) + "." + std::to_string(__GNUC_MINOR__);
#else
      "unknown";
#endif
  std::string meta = "{\"compiler\": \"" + compiler + "\"";
  meta += ", \"simd_extensions\": \"" + simd::describe_mask(simd::runnable_extensions()) + "\"";
  meta += ", \"best_simd_extension\": \"" +
          std::string(simd::name_of(simd::best_extension())) + "\"";
  meta += ", \"hardware_threads\": " + std::to_string(std::thread::hardware_concurrency());
  meta += std::string(", \"telemetry_enabled\": ") + (obs::enabled() ? "true" : "false");
  meta += ", \"full_scale\": " + std::string(full_scale() ? "true" : "false");
  meta += "}";
  return meta;
}

/// The current telemetry snapshot as a `"telemetry": {...}` JSON fragment
/// for a record's `extra` field (empty when collection is off, so records
/// measured without telemetry stay unchanged).
inline std::string telemetry_extra() {
  if (!obs::enabled()) return {};
  return "\"telemetry\": " +
         obs::snapshot_json_object(obs::TelemetryRegistry::global().snapshot());
}

/// One measured point: a (workload, engine/config) pair with its wall time
/// and its speedup over the sequential reference on the same workload.
/// `extra` is an optional pre-rendered JSON fragment of additional keys
/// (e.g. `"spills": 3, "faults": 12` from the sharded-YLT bench).
struct JsonRecord {
  std::string workload;
  std::string engine;
  double wall_seconds = 0.0;
  double speedup_vs_sequential = 0.0;
  std::string extra;
};

class JsonReport {
 public:
  void add(std::string workload, std::string engine, double wall_seconds,
           double speedup_vs_sequential, std::string extra = {}) {
    records_.push_back({std::move(workload), std::move(engine), wall_seconds,
                        speedup_vs_sequential, std::move(extra)});
  }

  /// Writes `{"meta": {...}, "records": [...]}` — the meta object stamps
  /// the build/host facts (build_metadata_json), the records array is the
  /// measured points. Returns false on I/O failure. Workload/engine strings
  /// are plain identifiers (no escaping needed).
  bool write(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    std::fprintf(out, "{\"meta\": %s,\n \"records\": [\n", build_metadata_json().c_str());
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const JsonRecord& record = records_[i];
      std::fprintf(out,
                   "  {\"workload\": \"%s\", \"engine\": \"%s\", \"wall_seconds\": %.6f, "
                   "\"speedup_vs_sequential\": %.4f%s%s}%s\n",
                   record.workload.c_str(), record.engine.c_str(), record.wall_seconds,
                   record.speedup_vs_sequential, record.extra.empty() ? "" : ", ",
                   record.extra.c_str(), i + 1 < records_.size() ? "," : "");
    }
    std::fprintf(out, "]}\n");
    return std::fclose(out) == 0;
  }

  std::size_t size() const noexcept { return records_.size(); }

 private:
  std::vector<JsonRecord> records_;
};

/// Extracts `--json PATH` (or `--json=PATH`) from argv, removing it so the
/// remaining flags can go to benchmark::Initialize (google benchmark
/// rejects flags it does not know). Returns `fallback` when absent.
inline std::string consume_json_flag(int* argc, char** argv, const char* fallback) {
  std::string path = fallback;
  int write_index = 1;
  for (int read_index = 1; read_index < *argc; ++read_index) {
    const char* arg = argv[read_index];
    if (std::strcmp(arg, "--json") == 0 && read_index + 1 < *argc) {
      path = argv[++read_index];
      continue;
    }
    if (std::strncmp(arg, "--json=", 7) == 0) {
      path = arg + 7;
      continue;
    }
    argv[write_index++] = argv[read_index];
  }
  *argc = write_index;
  return path;
}

}  // namespace are::bench
