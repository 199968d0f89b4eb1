// batch_pml: repeated full analyses of one large book — core::run (fused,
// every hardware thread) -> EP curve -> PML/TVaR -> technical premium.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "modes.hpp"
#include "probe.hpp"

namespace perfbench {

using namespace are;

namespace {

/// The trials at `indices`, as a YET of their own.
yet::YearEventTable subset_of(const yet::YearEventTable& table,
                              const std::vector<std::size_t>& indices) {
  std::vector<yet::EventId> events;
  std::vector<float> times;
  std::vector<std::uint64_t> offsets{0};
  for (const std::size_t t : indices) {
    const auto e = table.trial_events(t);
    const auto w = table.trial_times(t);
    events.insert(events.end(), e.begin(), e.end());
    times.insert(times.end(), w.begin(), w.end());
    offsets.push_back(events.size());
  }
  return {std::move(events), std::move(times), std::move(offsets)};
}

/// The output of one repetition.
struct BatchState {
  core::YearLossTable ylt;
  Reduced reduced;
};

}  // namespace

int run_batch(const Flags& flags) {
  const Shape shape = shape_for("batch_pml", flags.has("smoke"));
  Result result;
  Tracer::global().set_enabled(flags.get_u64("trace", 0) != 0);

  // Set-up, several times: read + verify the inputs, build the tables.
  Inputs in = load_inputs_timed(shape, flags.require("dir"), flags.get_u64("setups", 3), result);
  const std::size_t threads = analysis_threads();
  result.note("simd", simd_note(in));
  result.note("threads", std::to_string(threads));

  // Gate reference: the sequential engine on a subset of trials.
  std::vector<std::size_t> subset;
  const std::size_t stride = std::max<std::size_t>(1, in.yet.num_trials() / 256);
  for (std::size_t t = 0; t < in.yet.num_trials(); t += stride) subset.push_back(t);
  core::AnalysisConfig seq_config;
  seq_config.engine = core::EngineKind::kSequential;
  const yet::YearEventTable subset_yet = subset_of(in.yet, subset);
  const core::YearLossTable reference = core::run({in.portfolio, subset_yet, seq_config});

  const financial::LayerTerms& terms = in.portfolio.layers[0].terms;
  BatchAnalysis<BatchState> analysis;
  analysis.analyse = [&](BatchState& s) {
    Span span("analysis");
    {
      Span run_span("core.run");
      s.ylt = core::run({in.portfolio, in.yet, fused_config(threads)});
    }
    Span reduce_span("metrics.reduce");
    s.reduced = reduce_row(s.ylt.layer_losses(0), terms);
  };
  analysis.corrupt = [&](BatchState& s) {
    double& cell = s.ylt.at(0, subset[subset.size() / 2]);
    cell = flip_low_bit(cell);
  };
  analysis.gate = [&](const BatchState& s) {
    bool ok = std::isfinite(s.reduced.tvar99) && s.reduced.quote.technical_premium > 0;
    for (std::size_t i = 0; i < subset.size() && ok; ++i) {
      const double a = s.ylt.at(0, subset[i]);
      const double b = reference.at(0, i);
      ok = std::memcmp(&a, &b, sizeof a) == 0;
    }
    return ok;
  };
  analysis.repriced = [&](const BatchState& s) {
    return Repriced{s.ylt.layer_losses(0), terms, s.reduced};
  };
  run_repetitions(flags, analysis, "ylt_subset_bit_identical_to_seq",
                  std::to_string(subset.size()) + " trials", result);
  return finish_batch(flags, in, result);
}

}  // namespace perfbench
