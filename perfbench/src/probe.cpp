#include "probe.hpp"

#include <pthread.h>
#include <sched.h>
#include <time.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "io/binary.hpp"
#include "metrics/ep_curve.hpp"
#include "obs/telemetry.hpp"
#include "perfmodel/cpu_model.hpp"

namespace perfbench {

using namespace are;

std::size_t analysis_threads() {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

core::AnalysisConfig fused_config(std::size_t threads) {
  core::AnalysisConfig config;
  config.engine = core::EngineKind::kFused;
  config.num_threads = threads;
  return config;
}

Reduced reduce_row(std::span<const double> losses, const financial::LayerTerms& terms,
                   const pricing::PricingAssumptions& assumptions) {
  Reduced r;
  const metrics::EpCurve curve(losses);
  r.pml100 = curve.probable_maximum_loss(100.0);
  r.pml250 = curve.probable_maximum_loss(250.0);
  r.tvar99 = curve.tail_value_at_risk(0.99);
  r.quote = pricing::price_layer(losses, terms, assumptions);
  return r;
}

namespace {

double thread_cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 + static_cast<double>(ts.tv_nsec) * 1e-6;
}

}  // namespace

bool reprice(std::span<const double> losses, const financial::LayerTerms& terms,
             const Reduced& expected, int count, std::vector<double>& wall_ms,
             std::vector<double>& cpu_ms) {
  cpu_set_t all;
  CPU_ZERO(&all);
  pthread_getaffinity_np(pthread_self(), sizeof all, &all);
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &all)) cpus.push_back(c);
  }
  bool same = true;
  for (int k = 0; k < count; ++k) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus[static_cast<std::size_t>(k) % cpus.size()], &one);
    pthread_setaffinity_np(pthread_self(), sizeof one, &one);
    Span span("metrics.reprice");
    pricing::PricingAssumptions assumptions;
    assumptions.stddev_loading = 0.30 + 0.01 * k;
    const double c0 = thread_cpu_ms();
    const auto t0 = Clock::now();
    const Reduced again = reduce_row(losses, terms, assumptions);
    wall_ms.push_back(seconds_between(t0, Clock::now()) * 1e3);
    cpu_ms.push_back(thread_cpu_ms() - c0);
    same = same && again.pml250 == expected.pml250;
  }
  pthread_setaffinity_np(pthread_self(), sizeof all, &all);
  return same;
}

void trace_repetition(bool traced) {
  Tracer::global().set_enabled(traced);
  obs::set_enabled(traced);
  if (traced) obs::TelemetryRegistry::global().reset();
}

void report_repetitions(const Repetitions& reps, bool trace, const std::string& gate_name,
                        const std::string& scope, Result& result) {
  result.count(reps.count, reps.failed);
  result.gate(gate_name, reps.failed == 0,
              std::to_string(reps.failed) + " of " + std::to_string(reps.count) +
                  " analyses differ on " + scope);
  result.metric("analysis_s", median(reps.wall[0]), "s");
  result.metric("analysis_cpu_s", median(reps.cpu[0]), "s");
  result.metric("reprice_ms_p50", quantile(reps.reprice_ms, 0.5), "ms");
  result.metric("reprice_ms_p90", quantile(reps.reprice_ms, 0.9), "ms");
  result.metric("reprice_cpu_ms", median(reps.reprice_cpu_ms), "ms");
  result.metric("analyses", static_cast<double>(reps.count), "count");
  result.metric("reprice_samples", static_cast<double>(reps.reprice_ms.size()), "count");
  if (trace) {
    result.metric("obs.trace_overhead_frac", median(reps.wall[1]) / median(reps.wall[0]),
                  "ratio");
  }
}

int finish_batch(const Flags& flags, const Inputs& in, Result& result) {
  const bool trace = flags.get_u64("trace", 0) != 0;
  if (trace) probe_layers(in, result);
  result.metric("peak_rss_mb", peak_rss_mb(), "MB");
  result.write(flags.require("out"));
  if (trace) Tracer::global().write_chrome_json(flags.require("trace-out"));
  return result.gates_passed() ? 0 : 3;
}

std::string simd_note(const Inputs& in) {
  core::InstrumentationSink sink;
  core::AnalysisConfig config = fused_config(1);
  config.instrumentation = &sink;
  // A one-trial run resolves kAuto exactly as a full run does: the
  // narrowing depends on the tables' footprint, not the trial count.
  std::vector<yet::EventId> events(in.yet.trial_events(0).begin(), in.yet.trial_events(0).end());
  std::vector<float> times(in.yet.trial_times(0).begin(), in.yet.trial_times(0).end());
  const yet::YearEventTable one(std::move(events), std::move(times), {0, in.yet.trial_size(0)});
  core::run({in.portfolio, one, config});
  std::string note = sink.simd_extension_used
                         ? std::string(core::to_string(*sink.simd_extension_used))
                         : std::string("unknown");
  if (sink.simd_resolution_note) note += " (" + *sink.simd_resolution_note + ")";
  return note;
}

namespace {

void probe_io_checksum(const Inputs& in, Result& result) {
  Span span("io.checksum");
  const auto events = in.yet.events();
  const auto times = in.yet.times();
  std::vector<double> seconds;
  std::uint64_t sink = 0;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = Clock::now();
    sink ^= io::fnv1a(events.data(), events.size_bytes());
    sink ^= io::fnv1a(times.data(), times.size_bytes());
    seconds.push_back(seconds_between(t0, Clock::now()));
  }
  const double bytes = static_cast<double>(events.size_bytes() + times.size_bytes());
  result.metric("io.checksum_gb_per_s", bytes / median(seconds) / 1e9, "GB/s");
  result.note("io.checksum_digest", std::to_string(sink));
}

void probe_elt_lookup(const Inputs& in, Result& result) {
  Span span("elt.lookup_many");
  // Single thread, over the workload's own event stream (its first 1M
  // occurrences), through every table of the book.
  const auto stream = in.yet.events().subspan(
      0, std::min<std::size_t>(in.yet.events().size(), 1'000'000));
  constexpr std::size_t kBatch = 4096;
  std::vector<double> out(kBatch);
  double checksum = 0;
  const auto t0 = Clock::now();
  for (const auto& lookup : in.lookups) {
    for (std::size_t i = 0; i < stream.size(); i += kBatch) {
      const std::size_t n = std::min(kBatch, stream.size() - i);
      lookup->lookup_many(stream.data() + i, n, out.data());
      checksum += out[0];
    }
  }
  const double ns = seconds_between(t0, Clock::now()) * 1e9;
  result.metric("elt.lookup_ns", ns / static_cast<double>(stream.size() * in.lookups.size()),
                "ns");
  result.metric("elt.footprint_mb", in.footprint_mb(), "MB");
  result.note("elt.lookup_checksum", std::to_string(checksum));
}

void probe_core(const Inputs& in, Result& result) {
  const std::size_t threads = analysis_threads();
  obs::TelemetryRegistry& registry = obs::TelemetryRegistry::global();
  obs::set_enabled(true);
  std::vector<double> walls, cpus, block_p50, straggler, idle;
  core::YearLossTable ylt;
  for (int rep = 0; rep < 2; ++rep) {
    registry.reset();
    Span span("core.run");
    const double cpu0 = process_cpu_seconds();
    const auto t0 = Clock::now();
    ylt = core::run({in.portfolio, in.yet, fused_config(threads)});
    const double wall = seconds_between(t0, Clock::now());
    walls.push_back(wall);
    cpus.push_back(process_cpu_seconds() - cpu0);
    const obs::Snapshot snap = registry.snapshot();
    for (const auto& h : snap.histograms) {
      if (h.name == "kernel.block_ns") block_p50.push_back(static_cast<double>(h.quantile_ns(0.5)));
      if (h.name == "pool.task_ns" && h.quantile_ns(0.5) > 0) {
        straggler.push_back(static_cast<double>(h.max_ns) /
                            static_cast<double>(h.quantile_ns(0.5)));
      }
    }
    idle.push_back(static_cast<double>(snap.counter_value("pool.idle_ns")) /
                   (static_cast<double>(threads) * wall * 1e9));
  }
  const double run_s = median(walls);
  result.metric("core.run_s", run_s, "s");
  result.metric("core.lookups_per_s", static_cast<double>(in.lookups_per_run()) / run_s, "1/s");
  result.metric("core.cpu_per_wall", median(cpus) / run_s, "ratio");
  result.metric("core.block_ns_p50", median(block_p50), "ns");
  result.metric("parallel.task_max_over_p50", median(straggler), "ratio");
  result.metric("parallel.idle_frac", median(idle), "ratio");

  std::uint64_t elts = 0;
  for (const auto& layer : in.portfolio.layers) elts += layer.elts.size();
  const auto prediction = perfmodel::predict_cpu_time(
      in.yet.num_trials(), in.yet.mean_events_per_trial(),
      static_cast<double>(elts) / static_cast<double>(in.portfolio.layers.size()),
      in.portfolio.layers.size(), perfmodel::MachineSpec{}, static_cast<int>(threads));
  result.metric("perfmodel.measured_over_predicted", run_s / prediction.seconds, "ratio");

  {
    // Fig-6b split. It comes from the fused engine's instrumented tile path
    // (collect_phases), a timed copy of the loop, not the production one.
    Span span("core.run_phases");
    core::InstrumentationSink sink;
    core::AnalysisConfig config = fused_config(threads);
    config.instrumentation = &sink;
    config.collect_phases = true;
    core::run({in.portfolio, in.yet, config});
    const core::PhaseBreakdown phases = sink.phases.value_or(core::PhaseBreakdown{});
    result.metric("core.phase.fetch_frac", phases.fetch_fraction(), "ratio");
    result.metric("core.phase.lookup_frac", phases.lookup_fraction(), "ratio");
    result.metric("core.phase.financial_frac", phases.financial_fraction(), "ratio");
    result.metric("core.phase.layer_frac", phases.layer_fraction(), "ratio");
    result.metric("core.phase.output_frac", phases.output_fraction(), "ratio");
    result.note("core.phase.source",
                "instrumented tile path (collect_phases), not the production loop");
  }

  // metrics / pricing: the reduce step over the probe run's YLT rows.
  std::vector<double> ep_s, quote_s;
  double checksum = 0;
  for (int rep = 0; rep < 20; ++rep) {
    for (std::size_t l = 0; l < ylt.num_layers(); ++l) {
      const auto row = ylt.layer_losses(l);
      const auto t0 = Clock::now();
      std::optional<metrics::EpCurve> curve;
      {
        Span span("metrics.ep");
        curve.emplace(row);
        checksum += curve->probable_maximum_loss(250.0) + curve->tail_value_at_risk(0.99);
      }
      const auto t1 = Clock::now();
      {
        Span span("pricing.quote");
        checksum += pricing::price_layer(row, in.portfolio.layers[l].terms).technical_premium;
      }
      ep_s.push_back(seconds_between(t0, t1));
      quote_s.push_back(seconds_between(t1, Clock::now()));
    }
  }
  result.metric("metrics.ep_s", median(ep_s), "s");
  result.metric("pricing.quote_s", median(quote_s), "s");
  result.note("metrics.checksum", std::to_string(checksum));
}

}  // namespace

void probe_layers(const Inputs& in, Result& result) {
  probe_io_checksum(in, result);
  probe_elt_lookup(in, result);
  probe_core(in, result);
}

}  // namespace perfbench
