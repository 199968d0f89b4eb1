// out_of_core: shard::run_sharded of many trials x many layers under a
// resident budget of 1/8 of the YLT, so every shard spills and faults
// back, then metrics/sharded_reduce for per-layer AAL and portfolio
// PML/TVaR.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <vector>

#include "io/binary.hpp"
#include "metrics/sharded_reduce.hpp"
#include "metrics/statistics.hpp"
#include "modes.hpp"
#include "obs/telemetry.hpp"
#include "probe.hpp"
#include "shard/sharded_run.hpp"

namespace perfbench {

using namespace are;
namespace fs = std::filesystem;

namespace {

struct Analysis {
  std::optional<shard::ShardedYearLossTable> table;
  std::vector<double> aal;  // per layer
  std::vector<double> portfolio_losses;
  Reduced portfolio;
  double run_sharded_s = 0;
  double reduce_s = 0;
};

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// io.shard_write_mb_per_s / io.shard_read_mb_per_s: shard-sized buffers
/// through io::write_shard_binary / read_shard_binary into the spill
/// directory, the same calls the shard store makes per spill and fault.
void probe_shard_io(std::size_t shard_doubles, const std::string& spill_dir, Result& result) {
  Span span("io.shard_io");
  fs::create_directories(spill_dir);
  std::vector<double> values(shard_doubles);
  for (std::size_t i = 0; i < values.size(); ++i) values[i] = static_cast<double>(i) * 0.5;
  constexpr int kShards = 16;
  const auto path = [&](int i) {
    return (fs::path(spill_dir) / ("probe_" + std::to_string(i))).string();
  };
  const auto t0 = Clock::now();
  for (int i = 0; i < kShards; ++i) {
    std::ofstream out(path(i), std::ios::binary);
    io::write_shard_binary(out, values);
  }
  const auto t1 = Clock::now();
  for (int i = 0; i < kShards; ++i) {
    std::ifstream in(path(i), std::ios::binary);
    io::read_shard_binary(in, values);
  }
  const auto t2 = Clock::now();
  for (int i = 0; i < kShards; ++i) fs::remove(path(i));
  const double mb = static_cast<double>(kShards * shard_doubles * sizeof(double)) / 1e6;
  result.metric("io.shard_write_mb_per_s", mb / seconds_between(t0, t1), "MB/s");
  result.metric("io.shard_read_mb_per_s", mb / seconds_between(t1, t2), "MB/s");
}

}  // namespace

int run_out_of_core(const Flags& flags) {
  const Shape shape = shape_for("out_of_core", flags.has("smoke"));
  const bool trace = flags.get_u64("trace", 0) != 0;
  const std::string dir = flags.require("dir");
  const std::string spill_dir = (fs::path(dir) / "spill").string();
  Result result;
  Tracer::global().set_enabled(trace);

  // Set-up, several times: read + verify the inputs, build the tables.
  Inputs in = load_inputs_timed(shape, dir, flags.get_u64("setups", 5), result);
  const std::size_t threads = analysis_threads();
  const std::size_t layers = in.portfolio.layers.size();
  const std::size_t ylt_bytes = in.yet.num_trials() * layers * sizeof(double);
  result.note("simd", simd_note(in));
  result.note("threads", std::to_string(threads));
  result.note("resident_budget_bytes", std::to_string(ylt_bytes / 8));

  core::AnalysisConfig config = fused_config(threads);
  config.output = core::OutputMode::kSharded;
  config.sharding.shard_trials = shape.shard_trials;
  config.sharding.memory_budget_bytes = ylt_bytes / 8;
  config.sharding.spill_dir = spill_dir;

  // Gate reference: core::run (sequential anchor) on a subset of the
  // layers — the first and the last — materialized in memory.
  const std::vector<std::size_t> gate_layers{0, layers - 1};
  std::vector<std::vector<double>> ref_sorted;
  std::vector<double> ref_aal;
  {
    core::Portfolio subset;
    for (const std::size_t l : gate_layers) subset.layers.push_back(in.portfolio.layers[l]);
    core::AnalysisConfig seq;
    seq.engine = core::EngineKind::kSequential;
    const core::YearLossTable ylt = core::run({subset, in.yet, seq});
    for (std::size_t i = 0; i < gate_layers.size(); ++i) {
      const metrics::EpCurve curve(ylt.layer_losses(i));
      ref_sorted.emplace_back(curve.sorted_losses().begin(), curve.sorted_losses().end());
      ref_aal.push_back(metrics::summarize(ylt.layer_losses(i)).mean());
    }
  }

  std::vector<double> run_sharded_s, reduce_s, spills, faults, bytes_spilled, bytes_faulted,
      peak_resident_mb;
  BatchAnalysis<Analysis> analysis;
  analysis.analyse = [&](Analysis& a) {
    Span span("analysis");
    const auto t0 = Clock::now();
    {
      Span run_span("shard.run_sharded");
      a.table.emplace(shard::run_sharded({in.portfolio, in.yet, config}));
    }
    const auto t1 = Clock::now();
    Span reduce_span("metrics.sharded_reduce");
    for (std::size_t l = 0; l < layers; ++l) {
      a.aal.push_back(metrics::stats_sharded(*a.table, l).mean());
    }
    a.portfolio_losses = metrics::portfolio_losses_sharded(*a.table);
    a.portfolio = reduce_row(a.portfolio_losses, financial::LayerTerms{});
    a.run_sharded_s = seconds_between(t0, t1);
    a.reduce_s = seconds_between(t1, Clock::now());
  };
  analysis.traced_stats = [&](const Analysis& a) {
    const obs::Snapshot snap = obs::TelemetryRegistry::global().snapshot();
    const shard::ShardStoreStats stats = a.table->stats();
    run_sharded_s.push_back(a.run_sharded_s);
    reduce_s.push_back(a.reduce_s);
    spills.push_back(static_cast<double>(stats.spills));
    faults.push_back(static_cast<double>(stats.faults));
    bytes_spilled.push_back(static_cast<double>(snap.counter_value("shard.bytes_spilled")));
    bytes_faulted.push_back(static_cast<double>(snap.counter_value("shard.bytes_faulted")));
    peak_resident_mb.push_back(static_cast<double>(stats.peak_resident_bytes) / 1e6);
  };
  analysis.corrupt = [](Analysis& a) {
    auto view = a.table->shard(0);
    double& cell = view.layer_losses(0)[view.trials() / 2];
    cell = flip_low_bit(cell);
  };
  analysis.gate = [&](Analysis& a) {
    // Sharded EP and AAL against the in-memory reference, bit for bit.
    bool ok = std::isfinite(a.portfolio.tvar99) && a.portfolio.quote.technical_premium > 0;
    for (std::size_t i = 0; i < gate_layers.size() && ok; ++i) {
      const metrics::EpCurve curve = metrics::ep_curve_sharded(*a.table, gate_layers[i]);
      ok = curve.sorted_losses().size() == ref_sorted[i].size() &&
           std::memcmp(curve.sorted_losses().data(), ref_sorted[i].data(),
                       ref_sorted[i].size() * sizeof(double)) == 0 &&
           same_bits(a.aal[gate_layers[i]], ref_aal[i]);
    }
    return ok;
  };
  analysis.repriced = [](const Analysis& a) {
    return Repriced{a.portfolio_losses, financial::LayerTerms{}, a.portfolio};
  };
  run_repetitions(flags, analysis, "sharded_ep_aal_bit_identical_to_run",
                  "layers " + std::to_string(gate_layers[0]) + "," +
                      std::to_string(gate_layers[1]),
                  result);

  if (trace) {
    result.metric("shard.run_sharded_s", median(run_sharded_s), "s");
    result.metric("metrics.sharded_reduce_s", median(reduce_s), "s");
    result.metric("shard.spills", median(spills), "count");
    result.metric("shard.faults", median(faults), "count");
    result.metric("shard.bytes_spilled", median(bytes_spilled), "bytes");
    result.metric("shard.bytes_faulted", median(bytes_faulted), "bytes");
    result.metric("shard.peak_resident_mb", median(peak_resident_mb), "MB");
    probe_shard_io(shape.shard_trials * layers, spill_dir, result);
  }
  return finish_batch(flags, in, result);
}

}  // namespace perfbench
