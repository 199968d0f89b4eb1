// Tests for the unified engine API: the engine preset table (lookup by kind
// and by name), AnalysisConfig validation, the preset checks in core::run
// (the derived borrowed-pool rule), instrumentation facts, and the
// cross-engine equivalence sweep asserting every bit-identical preset
// matches run_sequential through the one front door.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>

#include "core/analysis.hpp"
#include "elt/synthetic.hpp"
#include "parallel/thread_pool.hpp"
#include "yet/generator.hpp"

namespace {

using namespace are;
using core::AnalysisConfig;
using core::EngineKind;
using core::EnginePreset;

constexpr std::size_t kUniverse = 10'000;

core::Portfolio test_portfolio(std::size_t elts = 3,
                               elt::LookupKind kind = elt::LookupKind::kDirectAccess) {
  core::Portfolio portfolio;
  core::Layer layer;
  layer.id = 1;
  layer.terms.occurrence_retention = 100e3;
  layer.terms.occurrence_limit = 5e6;
  layer.terms.aggregate_retention = 200e3;
  layer.terms.aggregate_limit = 50e6;
  for (std::uint64_t e = 0; e < elts; ++e) {
    elt::SyntheticEltConfig config;
    config.catalog_size = kUniverse;
    config.entries = 1'500;
    config.elt_id = e;
    core::LayerElt layer_elt;
    layer_elt.lookup = elt::make_lookup(kind, elt::make_synthetic_elt(config), kUniverse);
    layer_elt.terms.share = 0.8;
    layer.elts.push_back(std::move(layer_elt));
  }
  portfolio.layers.push_back(std::move(layer));
  return portfolio;
}

yet::YearEventTable test_yet(std::uint64_t trials = 300, double events = 40.0) {
  yet::YetConfig config;
  config.num_trials = trials;
  config.events_per_trial = events;
  config.count_model = yet::CountModel::kPoisson;
  config.seed = 17;
  return yet::generate_uniform_yet(config, kUniverse);
}

void expect_identical(const core::YearLossTable& a, const core::YearLossTable& b) {
  ASSERT_EQ(a.num_layers(), b.num_layers());
  ASSERT_EQ(a.num_trials(), b.num_trials());
  for (std::size_t layer = 0; layer < a.num_layers(); ++layer) {
    for (std::size_t trial = 0; trial < a.num_trials(); ++trial) {
      ASSERT_EQ(a.at(layer, trial), b.at(layer, trial)) << "layer " << layer << " trial "
                                                        << trial;
    }
  }
}

// --- Preset table -------------------------------------------------------------

TEST(EnginePresets, LooksUpEveryKindByKindAndByName) {
  for (const EngineKind kind :
       {EngineKind::kSequential, EngineKind::kParallel, EngineKind::kChunked,
        EngineKind::kOpenMp, EngineKind::kSimd, EngineKind::kWindowed,
        EngineKind::kInstrumented, EngineKind::kFused}) {
    const EnginePreset& by_kind = core::engine_preset(kind);
    EXPECT_EQ(by_kind.kind, kind);
    // The canonical name round-trips through name lookup and to_string.
    EXPECT_EQ(by_kind.name, core::to_string(kind));
    EXPECT_EQ(&core::engine_preset(by_kind.name), &by_kind);
  }
  // One preset per kind, in list-engines order.
  std::string names;
  for (const EnginePreset& preset : core::kEnginePresets) names += std::string(preset.name) + " ";
  EXPECT_EQ(names, "seq parallel chunked openmp simd windowed fused instrumented ");
}

TEST(EnginePresets, UnknownNameListsKnownEngines) {
  try {
    core::engine_preset("warp-drive");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("warp-drive"), std::string::npos);
    EXPECT_NE(message.find("seq"), std::string::npos) << message;
    EXPECT_NE(message.find("simd"), std::string::npos) << message;
  }
}

TEST(EnginePresets, BitsMatchTheEngines) {
  EXPECT_FALSE(core::engine_preset("windowed").bit_identical_to_sequential);
  EXPECT_TRUE(core::engine_preset("simd").lanes);
  EXPECT_TRUE(core::engine_preset("fused").lanes);
  EXPECT_FALSE(core::engine_preset("parallel").lanes);
  EXPECT_TRUE(core::engine_preset("instrumented").instrument);
  EXPECT_TRUE(core::engine_preset("chunked").event_chunks);
  // The borrowed-pool rule is derived from the schedule.
  EXPECT_TRUE(core::engine_preset("chunked").accepts_pool());
  EXPECT_FALSE(core::engine_preset("openmp").accepts_pool());
  EXPECT_FALSE(core::engine_preset("seq").accepts_pool());
}

// --- AnalysisConfig validation and preset checks ------------------------------

TEST(AnalysisConfig, ValidateRejectsBadWindowAndZeroChunks) {
  AnalysisConfig config;
  EXPECT_NO_THROW(config.validate());

  config.window = core::CoverageWindow{0.7f, 0.3f};  // from >= to
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.window = core::CoverageWindow{-0.1f, 0.5f};
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.window.reset();

  config.partition_chunk = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.partition_chunk = 256;

  config.chunk_size = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
}

TEST(UnifiedRun, EveryEngineAppliesTheSameWindowSemantics) {
  // The window is a kernel feature: any engine with a real mid-year window
  // must produce exactly the windowed engine's YLT for that window.
  const auto portfolio = test_portfolio(2);
  const auto yet_table = test_yet(300, 40.0);
  const core::CoverageWindow window{0.25f, 0.75f};
  const auto reference = core::run(
      {portfolio, yet_table, {.engine = EngineKind::kWindowed, .window = window}});
  const auto full_year = core::run_sequential(portfolio, yet_table);

  for (const EngineKind kind :
       {EngineKind::kSequential, EngineKind::kParallel, EngineKind::kChunked,
        EngineKind::kOpenMp, EngineKind::kSimd, EngineKind::kWindowed,
        EngineKind::kInstrumented, EngineKind::kFused}) {
    AnalysisConfig config;
    config.engine = kind;
    config.num_threads = 3;
    config.window = window;
    SCOPED_TRACE(core::to_string(kind));
    const auto windowed = core::run({portfolio, yet_table, config});
    expect_identical(reference, windowed);
    // The window genuinely bites on this workload.
    EXPECT_NE(0, std::memcmp(windowed.layer_losses(0).data(), full_year.layer_losses(0).data(),
                             windowed.num_trials() * sizeof(double)));
  }
}

TEST(UnifiedRun, RejectsLaneTypeNotRunnableOnThisHost) {
  const auto portfolio = test_portfolio(1);
  const auto yet_table = test_yet(20, 10.0);
  bool found_unavailable = false;
  for (const auto extension : {simd::Extension::kSse2, simd::Extension::kAvx2,
                               simd::Extension::kAvx512, simd::Extension::kNeon}) {
    if (simd::mask_has(simd::runnable_extensions(), extension)) continue;
    found_unavailable = true;
    AnalysisConfig config;
    config.engine = EngineKind::kSimd;
    config.simd_extension = extension;
    EXPECT_THROW(core::run({portfolio, yet_table, config}), std::invalid_argument)
        << core::to_string(extension);
  }
  // x86 builds never compile NEON (and vice versa), so at least one
  // extension is always unavailable.
  EXPECT_TRUE(found_unavailable);
}

// --- Cross-engine equivalence through the front door --------------------------

TEST(UnifiedRun, EveryBitIdenticalEngineMatchesSequential) {
  const auto portfolio = test_portfolio(3);
  const auto yet_table = test_yet(400, 60.0);
  const auto reference = core::run_sequential(portfolio, yet_table);

  std::size_t swept = 0;
  for (const EnginePreset& engine : core::kEnginePresets) {
    if (!engine.bit_identical_to_sequential) continue;
    AnalysisConfig config;
    config.engine = engine.kind;
    config.num_threads = 3;
    SCOPED_TRACE(engine.name);
    expect_identical(reference, core::run({portfolio, yet_table, config}));
    ++swept;
  }
  EXPECT_EQ(swept, 7u);  // seq, parallel, chunked, openmp, simd, fused, instrumented
}

TEST(UnifiedRun, BorrowedPoolIsBitIdenticalOrRejectedPerSchedule) {
  // The derived pool rule for every preset: pool and costed schedules run
  // on the borrowed pool and match run_sequential; serial and OpenMP
  // schedules own their threads and reject it.
  const auto portfolio = test_portfolio(3);
  const auto yet_table = test_yet(300, 40.0);
  const auto reference = core::run_sequential(portfolio, yet_table);
  parallel::ThreadPool pool(3);
  std::size_t accepted = 0;
  for (const EnginePreset& engine : core::kEnginePresets) {
    AnalysisConfig config;
    config.engine = engine.kind;
    config.pool = &pool;
    SCOPED_TRACE(engine.name);
    const bool pooled = engine.schedule == core::KernelLaunch::Schedule::kPool ||
                        engine.schedule == core::KernelLaunch::Schedule::kCosted;
    if (!pooled) {
      EXPECT_THROW(core::run({portfolio, yet_table, config}), std::invalid_argument);
      continue;
    }
    expect_identical(reference, core::run({portfolio, yet_table, config}));
    expect_identical(reference, core::run({portfolio, yet_table, config}));  // pool still warm
    ++accepted;
  }
  EXPECT_EQ(accepted, 4u);  // parallel, chunked, simd, fused
}

TEST(UnifiedRun, GenericLookupPathAlsoBitIdentical) {
  const auto portfolio = test_portfolio(3, elt::LookupKind::kRobinHood);
  const auto yet_table = test_yet(200, 40.0);
  const auto reference = core::run_sequential(portfolio, yet_table);
  for (const EnginePreset& engine : core::kEnginePresets) {
    if (!engine.bit_identical_to_sequential) continue;
    AnalysisConfig config;
    config.engine = engine.kind;
    config.num_threads = 2;
    SCOPED_TRACE(engine.name);
    expect_identical(reference, core::run({portfolio, yet_table, config}));
  }
}

TEST(UnifiedRun, FullYearWindowMatchesSequential) {
  const auto portfolio = test_portfolio();
  const auto yet_table = test_yet();
  const auto reference = core::run_sequential(portfolio, yet_table);
  AnalysisConfig config;
  config.engine = EngineKind::kWindowed;
  config.window = core::CoverageWindow{0.0f, 1.0f};
  expect_identical(reference, core::run({portfolio, yet_table, config}));
  config.window.reset();  // absent window = full year too
  expect_identical(reference, core::run({portfolio, yet_table, config}));
}

// --- Instrumentation facts ----------------------------------------------------

TEST(UnifiedRun, SinkRecordsEngineAndSimdResolution) {
  const auto portfolio = test_portfolio();
  const auto yet_table = test_yet(50, 10.0);

  core::InstrumentationSink sink;
  AnalysisConfig config;
  config.engine = EngineKind::kSimd;
  config.instrumentation = &sink;
  core::run({portfolio, yet_table, config});
  ASSERT_TRUE(sink.engine_used.has_value());
  EXPECT_EQ(*sink.engine_used, EngineKind::kSimd);
  ASSERT_TRUE(sink.simd_extension_used.has_value());
  EXPECT_EQ(*sink.simd_extension_used,
            core::resolve_simd_extension(std::nullopt).extension);
  EXPECT_FALSE(sink.phases.has_value());  // only kInstrumented fills phases
}

TEST(UnifiedRun, InstrumentedEngineFillsPhasesAndAccessCounts) {
  const auto portfolio = test_portfolio();
  const auto yet_table = test_yet(100, 30.0);

  core::InstrumentationSink sink;
  AnalysisConfig config;
  config.engine = EngineKind::kInstrumented;
  config.instrumentation = &sink;
  core::run({portfolio, yet_table, config});

  ASSERT_TRUE(sink.phases.has_value());
  EXPECT_GT(sink.phases->total_seconds(), 0.0);
  ASSERT_TRUE(sink.accesses.has_value());
  const auto predicted = core::predict_access_counts(portfolio, yet_table);
  EXPECT_EQ(sink.accesses->elt_lookups, predicted.elt_lookups);
  EXPECT_EQ(sink.accesses->events_fetched, predicted.events_fetched);
}

TEST(UnifiedRun, RunsWithoutSinkAndWithDefaults) {
  // Default config = parallel engine at hardware concurrency.
  const auto portfolio = test_portfolio();
  const auto yet_table = test_yet(50, 10.0);
  const auto ylt = core::run({portfolio, yet_table});
  expect_identical(core::run_sequential(portfolio, yet_table), ylt);
}

}  // namespace
