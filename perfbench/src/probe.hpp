#pragma once

// What the workloads share: the repetition loop of the batch workloads,
// and the per-layer probes of every traced run. Each probe calls a layer's
// public functions from outside and reads the program's own telemetry
// registry; nothing here adds instrumentation to the library.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "core/analysis.hpp"
#include "core/year_loss_table.hpp"
#include "inputs.hpp"
#include "pricing/pricing.hpp"
#include "util.hpp"

namespace perfbench {

/// Threads for the analysis runs: the host's hardware concurrency.
std::size_t analysis_threads();

/// The production analysis request of every workload: fused engine,
/// kAuto SIMD, `threads` workers.
are::core::AnalysisConfig fused_config(std::size_t threads);

/// PML at 100 and 250 years, TVaR at 99%, and the technical premium of
/// one layer's (or the portfolio's) trial losses — the reduce step of an
/// analysis.
struct Reduced {
  double pml100 = 0;
  double pml250 = 0;
  double tvar99 = 0;
  are::pricing::Quote quote;
};
Reduced reduce_row(std::span<const double> losses, const are::financial::LayerTerms& terms,
                   const are::pricing::PricingAssumptions& assumptions = {});

/// Reprices `losses` `count` times under varied loadings (EP -> PML/TVaR
/// -> premium, the metrics/pricing path alone), appending each sample's
/// wall and thread-CPU milliseconds. Sample k runs pinned to CPU k mod
/// nproc, so the medians span every CPU of the host rather than whichever
/// one the thread landed on. False when a repricing moved the PML, which
/// new loadings must not.
bool reprice(std::span<const double> losses, const are::financial::LayerTerms& terms,
             const Reduced& expected, int count, std::vector<double>& wall_ms,
             std::vector<double>& cpu_ms);

/// The row an analysis repriced, its terms, and the figures the analysis
/// reduced it to.
struct Repriced {
  std::span<const double> losses;
  are::financial::LayerTerms terms;
  Reduced expected;
};

/// What a batch workload (batch_pml, out_of_core) gives run_repetitions.
/// `State` is the output of one analysis: each repetition makes a fresh
/// one and drops it outside the timed region.
template <class State>
struct BatchAnalysis {
  std::function<void(State&)> analyse;             // resident inputs -> PML/TVaR; timed
  std::function<void(const State&)> traced_stats;  // after each traced repetition; may be empty
  std::function<void(State&)> corrupt;             // `--corrupt ylt`: flip one output value
  std::function<bool(State&)> gate;                // the output is right, bit for bit
  std::function<Repriced(const State&)> repriced;
};

/// Samples of the measured repetitions, [0] untraced and [1] traced.
struct Repetitions {
  std::vector<double> wall[2], cpu[2], reprice_ms, reprice_cpu_ms;
  std::uint64_t count = 0, failed = 0;
};

/// Switches the harness spans and the program's counters for one
/// repetition; a traced one starts from a reset registry.
void trace_repetition(bool traced);

/// Counts the repetitions, records the gate `gate_name` ("N of M analyses
/// differ on `scope`") and writes analysis_s, analysis_cpu_s, reprice_*,
/// and with `trace` obs.trace_overhead_frac.
void report_repetitions(const Repetitions& reps, bool trace, const std::string& gate_name,
                        const std::string& scope, Result& result);

/// Runs `analysis` once to page the inputs in, then repeatedly for the
/// run's `--seconds`, at least 3 times. Each repetition is timed (wall and
/// process CPU), then gated and repriced 12 times outside the timed
/// region. With `--trace 1` traced and untraced repetitions alternate, so
/// the tracing overhead is measured under the same conditions.
template <class State>
void run_repetitions(const Flags& flags, const BatchAnalysis<State>& analysis,
                     const std::string& gate_name, const std::string& scope, Result& result) {
  {
    State warm;
    analysis.analyse(warm);
  }
  const bool trace = flags.get_u64("trace", 0) != 0;
  const bool corrupt = flags.get("corrupt") == "ylt";
  const double budget_s = flags.get_double("seconds", 10);
  Repetitions reps;
  const auto start = Clock::now();
  while (reps.count < 3 || seconds_between(start, Clock::now()) < budget_s) {
    const bool traced = trace && reps.count % 2 == 1;
    trace_repetition(traced);
    State state;
    const double cpu0 = process_cpu_seconds();
    const auto t0 = Clock::now();
    analysis.analyse(state);
    reps.wall[traced].push_back(seconds_between(t0, Clock::now()));
    reps.cpu[traced].push_back(process_cpu_seconds() - cpu0);
    if (traced && analysis.traced_stats) analysis.traced_stats(state);
    if (corrupt && reps.count == 0) analysis.corrupt(state);
    ++reps.count;
    bool ok;
    {
      Span gate_span("gate");
      ok = analysis.gate(state);
    }
    const Repriced r = analysis.repriced(state);
    ok = reprice(r.losses, r.terms, r.expected, 12, reps.reprice_ms, reps.reprice_cpu_ms) && ok;
    if (!ok) ++reps.failed;
  }
  Tracer::global().set_enabled(trace);
  report_repetitions(reps, trace, gate_name, scope, result);
}

/// The common end of a batch workload: with `--trace 1` the per-layer
/// probes, then peak RSS, the result file and the trace file. Returns the
/// exit status: 3 when a gate failed.
int finish_batch(const Flags& flags, const Inputs& in, Result& result);

/// io.checksum_gb_per_s, elt.lookup_ns, elt.footprint_mb, core.*,
/// parallel.*, perfmodel.*, metrics.ep_s and pricing.quote_s for the
/// workload's inputs. Turns the program's counters on and leaves them on.
void probe_layers(const Inputs& in, Result& result);

/// The resolved SIMD extension and its reason, for the host record.
std::string simd_note(const Inputs& in);

}  // namespace perfbench
