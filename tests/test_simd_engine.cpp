// Tests for the SIMD batch-execution subsystem: the vec.hpp lane
// abstraction, the TrialBatch structure-of-arrays transpose, and
// bit-identical equivalence of the simd preset against run_sequential across
// lookup representations, lane widths, thread counts, and the financial
// edge cases (empty ELTs, unlimited limits, share == 1.0, trial counts not
// divisible by the lane width).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/analysis.hpp"
#include "core/simd_terms.hpp"
#include "elt/synthetic.hpp"
#include "simd/dispatch.hpp"
#include "simd/trial_batch.hpp"
#include "simd/vec.hpp"
#include "yet/generator.hpp"

namespace {

using namespace are;
using core::Layer;
using core::LayerElt;
using core::Portfolio;
using core::YearLossTable;
using simd::Extension;

constexpr std::size_t kUniverse = 20'000;

bool runnable(Extension extension) {
  return simd::mask_has(simd::runnable_extensions(), extension);
}

std::vector<Extension> available_extensions() {
  std::vector<Extension> extensions;
  for (Extension extension : {Extension::kScalar, Extension::kSse2, Extension::kAvx2,
                              Extension::kAvx512, Extension::kNeon}) {
    if (runnable(extension)) extensions.push_back(extension);
  }
  return extensions;
}

/// The simd preset through the front door; std::nullopt = auto lanes.
YearLossTable simd_run(const Portfolio& portfolio, const yet::YearEventTable& yet_table,
                       std::optional<Extension> extension = std::nullopt,
                       std::size_t threads = 1) {
  return core::run({portfolio, yet_table,
                    {.engine = core::EngineKind::kSimd,
                     .num_threads = threads,
                     .simd_extension = extension}});
}

/// A hand-checkable YET: trial 0 = events {0, 1}, trial 1 = {2},
/// trial 2 = empty, trial 3 = {0, 0, 3} (same as test_engine.cpp).
yet::YearEventTable tiny_yet() {
  return yet::YearEventTable({0, 1, 2, 0, 0, 3}, {0.1f, 0.2f, 0.5f, 0.1f, 0.2f, 0.3f},
                             {0, 2, 3, 3, 6});
}

elt::EventLossTable tiny_elt() {
  return elt::EventLossTable({{0, 100.0}, {1, 200.0}, {2, 300.0}, {3, 400.0}});
}

Portfolio tiny_portfolio(const financial::LayerTerms& terms,
                         elt::LookupKind kind = elt::LookupKind::kDirectAccess) {
  Layer layer;
  layer.id = 7;
  LayerElt layer_elt;
  layer_elt.lookup = elt::make_lookup(kind, tiny_elt(), 10);
  layer.elts.push_back(std::move(layer_elt));
  layer.terms = terms;
  Portfolio portfolio;
  portfolio.layers.push_back(std::move(layer));
  return portfolio;
}

Portfolio synthetic_portfolio(std::size_t num_layers, std::size_t elts_per_layer,
                              elt::LookupKind kind = elt::LookupKind::kDirectAccess,
                              double share = 0.9) {
  Portfolio portfolio;
  for (std::size_t l = 0; l < num_layers; ++l) {
    Layer layer;
    layer.id = static_cast<std::uint32_t>(l + 1);
    layer.terms.occurrence_retention = 200e3;
    layer.terms.occurrence_limit = 2e6;
    layer.terms.aggregate_retention = 500e3;
    layer.terms.aggregate_limit = 20e6;
    for (std::size_t e = 0; e < elts_per_layer; ++e) {
      elt::SyntheticEltConfig config;
      config.catalog_size = kUniverse;
      config.entries = 2'000;
      config.elt_id = l * 100 + e;
      LayerElt layer_elt;
      layer_elt.lookup = elt::make_lookup(kind, elt::make_synthetic_elt(config), kUniverse);
      layer_elt.terms.occurrence_retention = 10e3;
      layer_elt.terms.share = share;
      layer.elts.push_back(std::move(layer_elt));
    }
    portfolio.layers.push_back(std::move(layer));
  }
  return portfolio;
}

yet::YearEventTable synthetic_yet(std::uint64_t trials, double events) {
  yet::YetConfig config;
  config.num_trials = trials;
  config.events_per_trial = events;
  config.count_model = yet::CountModel::kPoisson;
  config.seed = 31;
  return yet::generate_uniform_yet(config, kUniverse);
}

void expect_identical(const YearLossTable& a, const YearLossTable& b) {
  ASSERT_EQ(a.num_layers(), b.num_layers());
  ASSERT_EQ(a.num_trials(), b.num_trials());
  for (std::size_t layer = 0; layer < a.num_layers(); ++layer) {
    for (std::size_t trial = 0; trial < a.num_trials(); ++trial) {
      ASSERT_EQ(a.at(layer, trial), b.at(layer, trial)) << "layer " << layer << " trial " << trial;
    }
  }
}

// --- vec.hpp lane abstraction -------------------------------------------------

template <typename V>
void check_vec_ops() {
  constexpr std::size_t kW = V::kLanes;
  double a_data[kW], b_data[kW], out[kW];
  for (std::size_t i = 0; i < kW; ++i) {
    a_data[i] = static_cast<double>(i) + 0.5;
    b_data[i] = static_cast<double>(kW - i);
  }
  const auto a = V::load(a_data);
  const auto b = V::load(b_data);

  V::store(out, V::add(a, b));
  for (std::size_t i = 0; i < kW; ++i) EXPECT_EQ(out[i], a_data[i] + b_data[i]);
  V::store(out, V::sub(a, b));
  for (std::size_t i = 0; i < kW; ++i) EXPECT_EQ(out[i], a_data[i] - b_data[i]);
  V::store(out, V::mul(a, b));
  for (std::size_t i = 0; i < kW; ++i) EXPECT_EQ(out[i], a_data[i] * b_data[i]);
  V::store(out, V::min(a, b));
  for (std::size_t i = 0; i < kW; ++i) EXPECT_EQ(out[i], a_data[i] < b_data[i] ? a_data[i] : b_data[i]);
  V::store(out, V::max(a, b));
  for (std::size_t i = 0; i < kW; ++i) EXPECT_EQ(out[i], a_data[i] > b_data[i] ? a_data[i] : b_data[i]);
  V::store(out, V::blend(V::less(a, b), a, b));
  for (std::size_t i = 0; i < kW; ++i) EXPECT_EQ(out[i], a_data[i] < b_data[i] ? a_data[i] : b_data[i]);
  V::store(out, V::broadcast(3.25));
  for (std::size_t i = 0; i < kW; ++i) EXPECT_EQ(out[i], 3.25);

  // Guarded gather: in-universe ids load, out-of-universe (including the
  // TrialBatch pad sentinel) produce 0.0.
  double table[8] = {10, 11, 12, 13, 14, 15, 16, 17};
  std::uint32_t idx[kW];
  for (std::size_t i = 0; i < kW; ++i) {
    idx[i] = i % 2 == 0 ? static_cast<std::uint32_t>(i) : simd::TrialBatch::kPadEvent;
  }
  V::store(out, V::gather_guarded(table, idx, 8));
  for (std::size_t i = 0; i < kW; ++i) {
    EXPECT_EQ(out[i], i % 2 == 0 ? table[i] : 0.0) << "lane " << i;
  }
}

TEST(SimdVec, ScalarOps) { check_vec_ops<simd::VecD<simd::scalar_ext>>(); }
#if ARE_SIMD_HAVE_SSE2
TEST(SimdVec, Sse2Ops) { check_vec_ops<simd::VecD<simd::sse2_ext>>(); }
#endif
#if ARE_SIMD_HAVE_AVX2
TEST(SimdVec, Avx2Ops) { check_vec_ops<simd::VecD<simd::avx2_ext>>(); }
#endif
#if ARE_SIMD_HAVE_AVX512
TEST(SimdVec, Avx512Ops) { check_vec_ops<simd::VecD<simd::avx512_ext>>(); }
#endif
#if ARE_SIMD_HAVE_NEON
TEST(SimdVec, NeonOps) { check_vec_ops<simd::VecD<simd::neon_ext>>(); }
#endif

/// excess_v is the scalar excess_of_loss bit for bit, signed zeros
/// included: +0.0 and -0.0 occurrence and aggregate limits (and the ELT
/// limit behind apply_financial_v), losses below, at and above the
/// retention. A -0.0 limit once turned a loss at or below the retention
/// into -0.0 in vector lanes where the scalar form gives +0.0.
template <typename V>
void check_excess_matches_scalar() {
  constexpr std::size_t kW = V::kLanes;
  const auto same_bits = [](double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
  };
  for (const double retention : {0.0, 250.0}) {
    for (const double limit : {0.0, -0.0, 100.0, financial::kUnlimited}) {
      const financial::LayerTerms layer{retention, limit, retention, limit};
      const financial::FinancialTerms elt{
          .occurrence_retention = retention, .occurrence_limit = limit, .share = 0.5};
      const core::detail::LayerTermsV<V> layer_v = core::detail::LayerTermsV<V>::from(layer);
      const core::detail::EltTermsV<V> elt_v = core::detail::EltTermsV<V>::from(elt);
      const double losses[] = {0.0,           -0.0,          retention * 0.5,
                               retention,     retention + 1, retention + 100,
                               retention + 1e6};
      for (const double loss : losses) {
        double in[kW], occurrence[kW], aggregate[kW], financial_out[kW];
        for (std::size_t lane = 0; lane < kW; ++lane) in[lane] = lane % 2 == 0 ? loss : 0.0;
        const auto x = V::load(in);
        V::store(occurrence, core::detail::excess_v<V>(x, layer_v.occ_retention, layer_v.occ_limit));
        V::store(aggregate, core::detail::excess_v<V>(x, layer_v.agg_retention, layer_v.agg_limit));
        V::store(financial_out, core::detail::apply_financial_v<V>(x, elt_v));
        for (std::size_t lane = 0; lane < kW; ++lane) {
          SCOPED_TRACE(testing::Message() << V::kName << " loss " << in[lane] << " retention "
                                          << retention << " limit " << limit << " lane " << lane);
          EXPECT_TRUE(same_bits(occurrence[lane], layer.apply_occurrence(in[lane])));
          EXPECT_TRUE(same_bits(aggregate[lane], layer.apply_aggregate(in[lane])));
          EXPECT_TRUE(same_bits(financial_out[lane], elt.apply(in[lane])));
        }
      }
    }
  }
}

TEST(SimdVec, ExcessMatchesScalarOnSignedZeroLimitsScalar) {
  check_excess_matches_scalar<simd::VecD<simd::scalar_ext>>();
}
#if ARE_SIMD_HAVE_SSE2
TEST(SimdVec, ExcessMatchesScalarOnSignedZeroLimitsSse2) {
  if (!runnable(Extension::kSse2)) GTEST_SKIP() << "sse2 not runnable here";
  check_excess_matches_scalar<simd::VecD<simd::sse2_ext>>();
}
#endif
#if ARE_SIMD_HAVE_AVX2
TEST(SimdVec, ExcessMatchesScalarOnSignedZeroLimitsAvx2) {
  if (!runnable(Extension::kAvx2)) GTEST_SKIP() << "avx2 not runnable here";
  check_excess_matches_scalar<simd::VecD<simd::avx2_ext>>();
}
#endif
#if ARE_SIMD_HAVE_AVX512
TEST(SimdVec, ExcessMatchesScalarOnSignedZeroLimitsAvx512) {
  if (!runnable(Extension::kAvx512)) GTEST_SKIP() << "avx512 not runnable here";
  check_excess_matches_scalar<simd::VecD<simd::avx512_ext>>();
}
#endif
#if ARE_SIMD_HAVE_NEON
TEST(SimdVec, ExcessMatchesScalarOnSignedZeroLimitsNeon) {
  check_excess_matches_scalar<simd::VecD<simd::neon_ext>>();
}
#endif

TEST(SimdVec, BestExtensionIsAvailable) {
  EXPECT_TRUE(runnable(simd::best_extension()));
  // Auto resolves through the runtime dispatch decision, not the
  // compile-time simd::kBestLanes of this TU — on a baseline build the
  // runtime choice is wider than anything this TU was compiled with.
  EXPECT_EQ(core::resolve_simd_extension(std::nullopt).extension, simd::best_extension());
  EXPECT_EQ(simd::lanes_of(Extension::kScalar), 1u);
}

TEST(SimdVec, UnavailableExtensionThrows) {
  const Portfolio portfolio = tiny_portfolio(financial::LayerTerms{});
  for (Extension extension :
       {Extension::kSse2, Extension::kAvx2, Extension::kAvx512, Extension::kNeon}) {
    if (runnable(extension)) continue;
    EXPECT_THROW(simd_run(portfolio, tiny_yet(), extension), std::invalid_argument);
    EXPECT_THROW(core::resolve_simd_extension(extension), std::invalid_argument);
  }
}

TEST(SimdVec, AutoRunsWidestExtensionForMemoryBoundPortfolios) {
  // One direct ELT over a 2M-event universe: a 16 MB dense table, past
  // core::kWideLaneFootprintBytes, so the kernel runs the layer from its
  // folded table — and auto still picks the widest runnable extension.
  Layer layer;
  layer.id = 1;
  LayerElt layer_elt;
  layer_elt.lookup = elt::make_lookup(elt::LookupKind::kDirectAccess, tiny_elt(), 2'000'000);
  layer.elts.push_back(std::move(layer_elt));
  Portfolio portfolio;
  portfolio.layers.push_back(std::move(layer));
  const auto resolved_by_run = [&](std::optional<Extension> requested) {
    core::InstrumentationSink sink;
    core::run({portfolio, tiny_yet(),
               {.engine = core::EngineKind::kSimd,
                .num_threads = 1,
                .simd_extension = requested,
                .instrumentation = &sink}});
    return sink.simd_extension_used;
  };
  EXPECT_EQ(resolved_by_run(std::nullopt), simd::best_extension());
  // An explicit extension request is never overridden.
  for (Extension extension : available_extensions()) {
    EXPECT_EQ(resolved_by_run(extension), extension);
  }
}

// --- TrialBatch transpose -----------------------------------------------------

TEST(TrialBatch, TransposesRaggedTrialsLaneMajor) {
  const auto yet_table = tiny_yet();
  simd::TrialBatch batch(4);
  batch.load(yet_table, 0, 4);
  EXPECT_EQ(batch.width(), 4u);
  EXPECT_EQ(batch.active(), 4u);
  EXPECT_EQ(batch.depth(), 3u);  // longest trial has 3 events

  // row j, lane t = event j of trial t; ragged slots padded.
  const auto pad = simd::TrialBatch::kPadEvent;
  const yet::EventId expected[3][4] = {
      {0, 2, pad, 0},
      {1, pad, pad, 0},
      {pad, pad, pad, 3},
  };
  for (std::size_t j = 0; j < 3; ++j) {
    for (std::size_t lane = 0; lane < 4; ++lane) {
      EXPECT_EQ(batch.row(j)[lane], expected[j][lane]) << "row " << j << " lane " << lane;
    }
  }
}

TEST(TrialBatch, PartialGroupPadsInactiveLanes) {
  const auto yet_table = tiny_yet();
  simd::TrialBatch batch(4);
  batch.load(yet_table, 3, 1);  // only trial 3 active
  EXPECT_EQ(batch.active(), 1u);
  EXPECT_EQ(batch.depth(), 3u);
  for (std::size_t j = 0; j < 3; ++j) {
    for (std::size_t lane = 1; lane < 4; ++lane) {
      EXPECT_EQ(batch.row(j)[lane], simd::TrialBatch::kPadEvent);
    }
  }
  EXPECT_EQ(batch.row(0)[0], 0u);
  EXPECT_EQ(batch.row(2)[0], 3u);
}

TEST(TrialBatch, EmptyTrialsGiveZeroDepth) {
  const auto yet_table = tiny_yet();
  simd::TrialBatch batch(8);
  batch.load(yet_table, 2, 1);  // trial 2 is empty
  EXPECT_EQ(batch.depth(), 0u);
}

// --- Hand-computed correctness ------------------------------------------------

TEST(SimdEngine, HandComputedCombinedTerms) {
  financial::LayerTerms terms;
  terms.occurrence_retention = 150.0;
  terms.occurrence_limit = 200.0;
  terms.aggregate_retention = 60.0;
  terms.aggregate_limit = 120.0;
  // Same expectations as the sequential engine's hand-computed case.
  for (Extension extension : available_extensions()) {
    const auto ylt = simd_run(tiny_portfolio(terms), tiny_yet(), extension);
    EXPECT_DOUBLE_EQ(ylt.at(0, 0), 0.0) << core::to_string(extension);
    EXPECT_DOUBLE_EQ(ylt.at(0, 1), 90.0) << core::to_string(extension);
    EXPECT_DOUBLE_EQ(ylt.at(0, 2), 0.0) << core::to_string(extension);
    EXPECT_DOUBLE_EQ(ylt.at(0, 3), 120.0) << core::to_string(extension);
  }
}

// --- Bit-identical equivalence vs run_sequential ------------------------------

TEST(SimdEngine, MatchesSequentialOnEveryLookupKind) {
  const auto yet_table = synthetic_yet(257, 40.0);  // not divisible by any lane width
  for (const elt::LookupKind kind :
       {elt::LookupKind::kDirectAccess, elt::LookupKind::kSortedVector,
        elt::LookupKind::kRobinHood, elt::LookupKind::kCuckoo, elt::LookupKind::kPagedDirect}) {
    const auto portfolio = synthetic_portfolio(2, 3, kind);
    const auto reference = core::run_sequential(portfolio, yet_table);
    for (Extension extension : available_extensions()) {
      SCOPED_TRACE(std::string(to_string(kind)) + "/" + std::string(core::to_string(extension)));
      expect_identical(simd_run(portfolio, yet_table, extension), reference);
    }
  }
}

TEST(SimdEngine, LaneWidthIndependentOnRaggedTrialCounts) {
  // Trial counts chosen to exercise every tail residue of widths 2, 4, 8.
  for (const std::uint64_t trials : {1u, 2u, 3u, 5u, 8u, 13u, 64u, 67u}) {
    const auto yet_table = synthetic_yet(trials, 25.0);
    const auto portfolio = synthetic_portfolio(1, 2);
    const auto reference = core::run_sequential(portfolio, yet_table);
    for (Extension extension : available_extensions()) {
      SCOPED_TRACE(std::to_string(trials) + " trials / " + std::string(core::to_string(extension)));
      expect_identical(simd_run(portfolio, yet_table, extension), reference);
    }
  }
}

TEST(SimdEngine, MatchesSequentialWithEmptyElt) {
  // A layer mixing an empty ELT (all lookups zero) with a populated one.
  Layer layer;
  layer.id = 1;
  layer.terms.occurrence_retention = 10e3;
  LayerElt empty_elt;
  empty_elt.lookup =
      elt::make_lookup(elt::LookupKind::kDirectAccess, elt::EventLossTable{}, kUniverse);
  layer.elts.push_back(std::move(empty_elt));
  elt::SyntheticEltConfig config;
  config.catalog_size = kUniverse;
  config.entries = 1'000;
  LayerElt real_elt;
  real_elt.lookup = elt::make_lookup(elt::LookupKind::kDirectAccess,
                                     elt::make_synthetic_elt(config), kUniverse);
  layer.elts.push_back(std::move(real_elt));
  Portfolio portfolio;
  portfolio.layers.push_back(std::move(layer));

  const auto yet_table = synthetic_yet(101, 30.0);
  const auto reference = core::run_sequential(portfolio, yet_table);
  for (Extension extension : available_extensions()) {
    expect_identical(simd_run(portfolio, yet_table, extension), reference);
  }
}

TEST(SimdEngine, MatchesSequentialWithUnlimitedLimitsAndFullShare) {
  // All limits unlimited and share == 1.0 — the boundary where the
  // financial pipeline degenerates to pure sums.
  Portfolio portfolio = synthetic_portfolio(1, 3, elt::LookupKind::kDirectAccess, /*share=*/1.0);
  for (auto& layer : portfolio.layers) {
    layer.terms.occurrence_limit = financial::kUnlimited;
    layer.terms.aggregate_limit = financial::kUnlimited;
    layer.terms.occurrence_retention = 0.0;
    layer.terms.aggregate_retention = 0.0;
    for (auto& layer_elt : layer.elts) {
      layer_elt.terms.occurrence_limit = financial::kUnlimited;
      layer_elt.terms.occurrence_retention = 0.0;
    }
  }
  const auto yet_table = synthetic_yet(97, 35.0);
  const auto reference = core::run_sequential(portfolio, yet_table);
  for (Extension extension : available_extensions()) {
    expect_identical(simd_run(portfolio, yet_table, extension), reference);
  }
}

TEST(SimdEngine, ThreadCompositionIsBitIdentical) {
  // simd x threads: thread-block boundaries regroup trials into different
  // batches, which must not change any trial's result.
  const auto yet_table = synthetic_yet(211, 30.0);
  const auto portfolio = synthetic_portfolio(2, 2);
  const auto reference = core::run_sequential(portfolio, yet_table);
  for (const std::size_t threads : {1u, 2u, 3u, 7u}) {
    SCOPED_TRACE(threads);
    expect_identical(simd_run(portfolio, yet_table, std::nullopt, threads), reference);
  }
}

TEST(SimdEngine, MatchesOtherEngines) {
  const auto yet_table = synthetic_yet(128, 40.0);
  const auto portfolio = synthetic_portfolio(2, 3);
  const auto simd_ylt = simd_run(portfolio, yet_table);
  expect_identical(simd_ylt,
                   core::run({portfolio, yet_table, {.engine = core::EngineKind::kParallel}}));
  expect_identical(simd_ylt,
                   core::run({portfolio, yet_table, {.engine = core::EngineKind::kChunked}}));
}

}  // namespace
