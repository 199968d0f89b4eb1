// Tests for the shared trial-block kernel (core/trial_kernel.hpp) — the
// one loop nest every engine drives. The reference here is a deliberately
// naive inline transcription of the paper's basic algorithm (the seed
// repo's sequential loop), NOT any engine: the kernel must reproduce those
// bytes for every block size, lane width, window, event chunk, and sink.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <optional>
#include <cstring>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/analysis.hpp"
#include "core/sparse_layer.hpp"
#include "core/trial_kernel.hpp"
#include "elt/scaled_lookup.hpp"
#include "elt/synthetic.hpp"
#include "financial/trial_accumulator.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "shard/sharded_ylt.hpp"
#include "yet/generator.hpp"

namespace {

using namespace are;
using core::CoverageWindow;
using core::KernelLaunch;
using core::Portfolio;
using core::TrialBlockKernel;
using core::TrialKernelConfig;
using core::TrialKernelScratch;
using core::YearLossTable;

constexpr std::size_t kUniverse = 20'000;

Portfolio synthetic_portfolio(std::size_t num_layers, std::size_t elts_per_layer,
                              elt::LookupKind kind = elt::LookupKind::kDirectAccess) {
  Portfolio portfolio;
  for (std::size_t l = 0; l < num_layers; ++l) {
    core::Layer layer;
    layer.id = static_cast<std::uint32_t>(l + 1);
    layer.terms.occurrence_retention = 150e3;
    layer.terms.occurrence_limit = 3e6;
    layer.terms.aggregate_retention = 400e3;
    layer.terms.aggregate_limit = 30e6;
    for (std::size_t e = 0; e < elts_per_layer; ++e) {
      elt::SyntheticEltConfig config;
      config.catalog_size = kUniverse;
      config.entries = 1'500;
      config.elt_id = l * 100 + e;
      core::LayerElt layer_elt;
      layer_elt.lookup = elt::make_lookup(kind, elt::make_synthetic_elt(config), kUniverse);
      layer_elt.terms.occurrence_retention = 20e3;
      layer_elt.terms.share = 0.85;
      layer.elts.push_back(std::move(layer_elt));
    }
    portfolio.layers.push_back(std::move(layer));
  }
  return portfolio;
}

yet::YearEventTable skewed_yet(std::uint64_t trials, double events) {
  yet::YetConfig config;
  config.num_trials = trials;
  config.events_per_trial = events;
  config.count_model = yet::CountModel::kNegativeBinomial;
  config.dispersion = 2.0;
  config.seed = 47;
  return yet::generate_uniform_yet(config, kUniverse);
}

/// The seed repo's sequential loop, transcribed: per layer, per trial, per
/// event — virtual lookup, ELT terms combined in layer order, occurrence
/// terms, aggregate recurrence. The anchor every kernel configuration must
/// match byte for byte.
YearLossTable reference_ylt(const Portfolio& portfolio, const yet::YearEventTable& yet_table,
                            const CoverageWindow* window = nullptr) {
  std::vector<std::uint32_t> ids;
  for (const core::Layer& layer : portfolio.layers) ids.push_back(layer.id);
  YearLossTable ylt(std::move(ids), yet_table.num_trials());
  for (std::size_t layer_index = 0; layer_index < portfolio.layers.size(); ++layer_index) {
    const core::Layer& layer = portfolio.layers[layer_index];
    auto losses = ylt.layer_losses(layer_index);
    for (std::size_t trial = 0; trial < yet_table.num_trials(); ++trial) {
      const auto events = yet_table.trial_events(trial);
      const auto times = yet_table.trial_times(trial);
      financial::TrialAccumulator accumulator(layer.terms);
      for (std::size_t k = 0; k < events.size(); ++k) {
        if (window != nullptr && !window->covers(times[k])) continue;
        double combined = 0.0;
        for (const core::LayerElt& layer_elt : layer.elts) {
          combined += layer_elt.terms.apply(layer_elt.lookup->lookup(events[k]));
        }
        accumulator.add_occurrence(layer.terms.apply_occurrence(combined));
      }
      losses[trial] = accumulator.trial_loss();
    }
  }
  return ylt;
}

void expect_identical(const YearLossTable& a, const YearLossTable& b) {
  ASSERT_EQ(a.num_layers(), b.num_layers());
  ASSERT_EQ(a.num_trials(), b.num_trials());
  for (std::size_t layer = 0; layer < a.num_layers(); ++layer) {
    const auto row_a = a.layer_losses(layer);
    const auto row_b = b.layer_losses(layer);
    ASSERT_EQ(0, std::memcmp(row_a.data(), row_b.data(), row_a.size() * sizeof(double)))
        << "layer " << layer;
  }
}

YearLossTable run_kernel(const Portfolio& portfolio, const yet::YearEventTable& yet_table,
                         TrialKernelConfig config, KernelLaunch launch = {}) {
  std::vector<std::uint32_t> ids;
  for (const core::Layer& layer : portfolio.layers) ids.push_back(layer.id);
  YearLossTable ylt(std::move(ids), yet_table.num_trials());
  core::run_trial_kernel(portfolio, yet_table, config, launch, &ylt, nullptr);
  return ylt;
}

// --- Kernel vs seed reference across block sizes ------------------------------

class KernelBlockSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(KernelBlockSizes, BitIdenticalToSeedReference) {
  const Portfolio portfolio = synthetic_portfolio(2, 3);
  const auto yet_table = skewed_yet(401, 30.0);  // prime trial count: ragged tail block
  const auto reference = reference_ylt(portfolio, yet_table);

  TrialKernelConfig config;
  config.block_trials = GetParam() == 0 ? 401 : GetParam();  // 0 stands for "all trials"
  expect_identical(reference, run_kernel(portfolio, yet_table, config));

  // The folded-table route too.
  const Portfolio folded = synthetic_portfolio(2, 2, elt::LookupKind::kRobinHood);
  expect_identical(reference_ylt(folded, yet_table), run_kernel(folded, yet_table, config));
}

INSTANTIATE_TEST_SUITE_P(Blocks, KernelBlockSizes, ::testing::Values(1, 7, 64, 0),
                         [](const auto& info) {
                           return info.param == 0 ? std::string("all")
                                                  : "b" + std::to_string(info.param);
                         });

TEST(TrialKernel, LaneWidthsAndSchedulesShareTheBytes) {
  const Portfolio portfolio = synthetic_portfolio(2, 3);
  const auto yet_table = skewed_yet(300, 25.0);
  const auto reference = reference_ylt(portfolio, yet_table);

  for (const simd::Extension extension : {simd::Extension::kScalar, simd::best_extension()}) {
    for (const KernelLaunch::Schedule schedule :
         {KernelLaunch::Schedule::kSerial, KernelLaunch::Schedule::kPool,
          KernelLaunch::Schedule::kCosted, KernelLaunch::Schedule::kOpenMp}) {
      TrialKernelConfig config;
      config.extension = extension;
      config.block_trials = 37;
      KernelLaunch launch;
      launch.schedule = schedule;
      launch.num_threads = 3;
      SCOPED_TRACE(std::string(core::to_string(extension)) + "_schedule" +
                   std::to_string(static_cast<int>(schedule)));
      expect_identical(reference, run_kernel(portfolio, yet_table, config, launch));
    }
  }
}

TEST(TrialKernel, EventChunkingNeverChangesTheBytes) {
  const Portfolio portfolio = synthetic_portfolio(1, 3);
  const auto yet_table = skewed_yet(200, 40.0);
  const auto reference = reference_ylt(portfolio, yet_table);
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{4}, std::size_t{13}}) {
    TrialKernelConfig config;
    config.event_chunk = chunk;
    SCOPED_TRACE(chunk);
    expect_identical(reference, run_kernel(portfolio, yet_table, config));
  }
}

// --- Window edges -------------------------------------------------------------

TEST(TrialKernel, WindowEdges) {
  // Hand-built YET with exact timestamps so the window edges are
  // deterministic: trial 0 = {0.1, 0.5, 0.9}, trial 1 = {0.5}, trial 2 = {}.
  const std::vector<yet::EventId> events = {10, 20, 30, 20};
  const std::vector<float> times = {0.1f, 0.5f, 0.9f, 0.5f};
  const std::vector<std::uint64_t> offsets = {0, 3, 4, 4};
  const yet::YearEventTable yet_table(events, times, offsets);
  const Portfolio portfolio = synthetic_portfolio(1, 2);

  const auto unwindowed = reference_ylt(portfolio, yet_table);

  // Full-year window ≡ unwindowed, bit for bit.
  TrialKernelConfig config;
  config.window = CoverageWindow{0.0f, 1.0f};
  expect_identical(unwindowed, run_kernel(portfolio, yet_table, config));

  // A window covering no occurrence: every trial loss collapses to the
  // empty-trial value.
  config.window = CoverageWindow{0.95f, 1.0f};
  const auto empty = run_kernel(portfolio, yet_table, config);
  const CoverageWindow none{0.95f, 1.0f};
  expect_identical(reference_ylt(portfolio, yet_table, &none), empty);
  for (std::size_t trial = 0; trial < 3; ++trial) {
    EXPECT_EQ(empty.at(0, trial), empty.at(0, 2)) << "trial " << trial;  // trial 2 is empty
  }

  // A single-event window: [0.5, 0.9) admits exactly the 0.5 occurrences
  // (`to` is exclusive, `from` inclusive).
  config.window = CoverageWindow{0.5f, 0.9f};
  const CoverageWindow single{0.5f, 0.9f};
  expect_identical(reference_ylt(portfolio, yet_table, &single),
                   run_kernel(portfolio, yet_table, config));
}

// --- Sink block alignment -----------------------------------------------------

/// Records every emit and forwards into a YearLossTable; block_trials()
/// advertises an alignment the kernel must never violate.
class RecordingSink final : public core::YltSink {
 public:
  RecordingSink(YearLossTable& ylt, std::uint64_t block_trials)
      : ylt_(ylt), block_trials_(block_trials) {}

  void emit(std::size_t layer_index, std::uint64_t trial_begin,
            std::span<const double> losses) override {
    if (block_trials_ != 0) {
      // The whole block must live inside one alignment window.
      EXPECT_EQ(trial_begin / block_trials_,
                (trial_begin + losses.size() - 1) / block_trials_)
          << "block [" << trial_begin << ", " << trial_begin + losses.size()
          << ") crosses a " << block_trials_ << "-trial boundary";
    }
    double* row = ylt_.layer_losses(layer_index).data();
    for (std::size_t i = 0; i < losses.size(); ++i) {
      EXPECT_EQ(seen_.insert(layer_index * ylt_.num_trials() + trial_begin + i).second, true)
          << "cell emitted twice";
      row[trial_begin + i] = losses[i];
    }
  }

  std::uint64_t block_trials() const noexcept override { return block_trials_; }

  std::size_t cells_seen() const noexcept { return seen_.size(); }

 private:
  YearLossTable& ylt_;
  std::uint64_t block_trials_;
  std::set<std::uint64_t> seen_;
};

TEST(TrialKernel, SinkBlocksAlignAndCoverEveryCellOnce) {
  const Portfolio portfolio = synthetic_portfolio(2, 2);
  const auto yet_table = skewed_yet(201, 20.0);
  const auto reference = reference_ylt(portfolio, yet_table);

  // Alignment 10 deliberately indivisible by block_trials 16 (and vice
  // versa), so clamping must actually cut blocks.
  for (const std::uint64_t alignment : {std::uint64_t{1}, std::uint64_t{10}, std::uint64_t{0}}) {
    std::vector<std::uint32_t> ids = {1, 2};
    YearLossTable ylt(ids, yet_table.num_trials());
    RecordingSink sink(ylt, alignment);
    TrialKernelConfig config;
    config.block_trials = 16;
    SCOPED_TRACE(alignment);
    core::run_trial_kernel(portfolio, yet_table, config, {}, nullptr, &sink);
    EXPECT_EQ(sink.cells_seen(), 2 * yet_table.num_trials());
    expect_identical(reference, ylt);
  }
}

TEST(TrialKernel, RejectsAmbiguousDestination) {
  const Portfolio portfolio = synthetic_portfolio(1, 1);
  const auto yet_table = skewed_yet(10, 5.0);
  std::vector<std::uint32_t> ids = {1};
  YearLossTable ylt(ids, yet_table.num_trials());
  RecordingSink sink(ylt, 0);
  EXPECT_THROW(core::run_trial_kernel(portfolio, yet_table, {}, {}, nullptr, nullptr),
               std::invalid_argument);
  EXPECT_THROW(core::run_trial_kernel(portfolio, yet_table, {}, {}, &ylt, &sink),
               std::invalid_argument);
}

// --- Sparse layer path (the pre-folded table) ---------------------------------
//
// Every layer except a cache-resident all-direct one runs from a
// core::SparseLayerTable folded at launch from ILossLookup::for_each_entry.
// Its independent oracles: the naive reference above (YLT bytes, virtual
// lookup per ELT) and reference_ground_up below (combined pre-occurrence
// losses, signed zeros included), for every ELT kind and decorator.

constexpr std::size_t kWideUniverse = 700'000;  // YET ids; past every ELT universe below
constexpr elt::EventId kInEveryElt[] = {3, 63, 64, 127, 128, 299'999};
constexpr elt::EventId kZeroLoss = 11;  // a 0.0-loss record in every ELT

/// Synthetic losses over [0, universe) plus records for kInEveryElt (above
/// every retention below) and kZeroLoss.
elt::EventLossTable memory_bound_elt(std::size_t universe, std::uint64_t elt_id) {
  elt::SyntheticEltConfig config;
  config.catalog_size = universe;
  config.entries = 20'000;
  config.elt_id = elt_id;
  const elt::EventLossTable synthetic = elt::make_synthetic_elt(config);
  std::vector<elt::EventLoss> records;
  for (const elt::EventLoss& record : synthetic.records()) {
    if (record.event != kZeroLoss && std::ranges::find(kInEveryElt, record.event) ==
                                         std::end(kInEveryElt)) {
      records.push_back(record);
    }
  }
  for (const elt::EventId event : kInEveryElt) {
    records.push_back({event, 4e5 + 1e3 * static_cast<double>(elt_id)});
  }
  records.push_back({kZeroLoss, 0.0});
  return elt::EventLossTable(std::move(records));
}

/// Two memory-bound layers:
///  1. three ELTs with universes 600k / 400k / 300k (10.4 MB dense): zero
///     retention with share < 1 and a currency rate != 1, a plain ELT, and
///     a -0.0 occurrence limit;
///  2. two ELTs over 500k (8 MB dense), both with a -0.0 occurrence limit,
///     so every combined loss is a zero whose sign depends on the fold.
Portfolio memory_bound_portfolio(elt::LookupKind kind) {
  const auto add_elt = [&](core::Layer& layer, std::size_t universe, std::uint64_t elt_id,
                           financial::FinancialTerms terms) {
    layer.elts.push_back({elt::make_lookup(kind, memory_bound_elt(universe, elt_id), universe),
                          terms});
  };
  Portfolio portfolio;
  core::Layer first;
  first.id = 1;
  first.terms = {.occurrence_retention = 5e4,
                 .occurrence_limit = 2e6,
                 .aggregate_retention = 1e5,
                 .aggregate_limit = 1e7};
  add_elt(first, 600'000, 1, {.occurrence_retention = 0.0, .share = 0.85, .currency_rate = 1.25});
  add_elt(first, 400'000, 2, {.occurrence_retention = 2e4, .occurrence_limit = 4e5});
  add_elt(first, 300'000, 3, {.occurrence_retention = 1e4, .occurrence_limit = -0.0});
  portfolio.layers.push_back(std::move(first));
  core::Layer second;
  second.id = 2;
  add_elt(second, 500'000, 4,
          {.occurrence_retention = 1e3, .occurrence_limit = -0.0, .share = 0.5});
  add_elt(second, 500'000, 5, {.occurrence_retention = 1e3, .occurrence_limit = -0.0});
  portfolio.layers.push_back(std::move(second));
  return portfolio;
}

/// Ragged trials (some empty) over [0, kWideUniverse); a quarter of the
/// occurrences hit the fixed ids, universe edges and ids past every universe.
yet::YearEventTable memory_bound_yet() {
  std::vector<elt::EventId> hot(std::begin(kInEveryElt), std::end(kInEveryElt));
  hot.insert(hot.end(), {kZeroLoss, 299'998, 300'000, 399'999, 400'000, 499'999, 500'000,
                         599'999, 600'000, 699'999});
  std::mt19937_64 rng(14);
  std::vector<elt::EventId> events;
  std::vector<float> times;
  std::vector<std::uint64_t> offsets{0};
  for (std::size_t trial = 0; trial < 311; ++trial) {
    const std::size_t length = rng() % 61;
    for (std::size_t k = 0; k < length; ++k) {
      events.push_back(rng() % 4 == 0 ? hot[rng() % hot.size()]
                                      : static_cast<elt::EventId>(rng() % kWideUniverse));
      times.push_back(static_cast<float>(rng() % 1000) / 1000.0f);
    }
    std::sort(times.end() - static_cast<std::ptrdiff_t>(length), times.end());
    offsets.push_back(events.size());
  }
  return yet::YearEventTable(std::move(events), std::move(times), std::move(offsets));
}

/// Combined pre-occurrence losses, one row per layer, one double per YET
/// occurrence.
using DenseGroundUp = std::vector<std::vector<double>>;

/// The dense fold of the combine step, transcribed: per occurrence, the
/// first ELT's term, then every later ELT's added in layer order — scalar
/// FinancialTerms::apply over the virtual lookup.
DenseGroundUp reference_ground_up(const Portfolio& portfolio,
                                  const yet::YearEventTable& yet_table) {
  const auto events = yet_table.events();
  DenseGroundUp dense(portfolio.layers.size(), std::vector<double>(events.size()));
  for (std::size_t layer_index = 0; layer_index < portfolio.layers.size(); ++layer_index) {
    const std::vector<core::LayerElt>& elts = portfolio.layers[layer_index].elts;
    for (std::size_t k = 0; k < events.size(); ++k) {
      double sum = elts[0].terms.apply(elts[0].lookup->lookup(events[k]));
      for (std::size_t e = 1; e < elts.size(); ++e) {
        sum += elts[e].terms.apply(elts[e].lookup->lookup(events[k]));
      }
      dense[layer_index][k] = sum;
    }
  }
  return dense;
}

/// One layer of a sealed cache, densified through its public sparse view:
/// +0.0 where a trial's bit is clear, else the trial's next packed value.
std::vector<double> densify(const core::GroundUpLossCache& cache, std::size_t layer_index,
                            const yet::YearEventTable& yet_table) {
  const core::GroundUpLossCache::LayerView view = cache.layer(layer_index);
  const auto word_starts = cache.word_starts();
  const auto offsets = yet_table.offsets();
  std::vector<double> dense(yet_table.total_events(), 0.0);
  for (std::size_t trial = 0; trial < yet_table.num_trials(); ++trial) {
    std::uint64_t next = view.value_starts[trial];
    for (std::uint64_t k = 0; k < offsets[trial + 1] - offsets[trial]; ++k) {
      if ((view.words[word_starts[trial] + k / 64] >> (k % 64) & 1) != 0) {
        dense[offsets[trial] + k] = view.values[next++];
      }
    }
    EXPECT_EQ(next, view.value_starts[trial + 1]) << "trial " << trial;
  }
  return dense;
}

/// The capture must densify to the reference bytes, signed zeros included,
/// and hold exactly the losses that are not +0.0.
void expect_ground_up(const DenseGroundUp& expected, const core::GroundUpLossCache& cache,
                      const yet::YearEventTable& yet_table) {
  ASSERT_TRUE(cache.sealed());
  ASSERT_EQ(cache.num_layers(), expected.size());
  std::uint64_t present = 0;
  for (std::size_t layer_index = 0; layer_index < expected.size(); ++layer_index) {
    const std::vector<double> dense = densify(cache, layer_index, yet_table);
    ASSERT_EQ(dense.size(), expected[layer_index].size());
    EXPECT_EQ(0, std::memcmp(dense.data(), expected[layer_index].data(),
                             dense.size() * sizeof(double)))
        << "ground-up layer index " << layer_index;
    present += static_cast<std::uint64_t>(std::ranges::count_if(
        expected[layer_index], [](double x) { return std::bit_cast<std::uint64_t>(x) != 0; }));
  }
  EXPECT_EQ(cache.entries(), present);
}

std::vector<simd::Extension> runnable_extensions() {
  std::vector<simd::Extension> extensions;
  for (const simd::Extension extension :
       {simd::Extension::kScalar, simd::Extension::kSse2, simd::Extension::kAvx2,
        simd::Extension::kAvx512, simd::Extension::kNeon}) {
    if (simd::mask_has(simd::runnable_extensions(), extension)) extensions.push_back(extension);
  }
  return extensions;
}

constexpr elt::LookupKind kLookupKinds[] = {
    elt::LookupKind::kDirectAccess, elt::LookupKind::kSortedVector, elt::LookupKind::kRobinHood,
    elt::LookupKind::kCuckoo, elt::LookupKind::kPagedDirect};

/// `book` with ELT e of layer l replaced by `replace(l, e, lookup)`.
template <typename Replace>
Portfolio with_lookups(Portfolio book, const Replace& replace) {
  for (std::size_t l = 0; l < book.layers.size(); ++l) {
    std::vector<core::LayerElt>& elts = book.layers[l].elts;
    for (std::size_t e = 0; e < elts.size(); ++e) elts[e].lookup = replace(l, e, elts[e].lookup);
  }
  return book;
}

/// The memory-bound book in every form the folded table is built from:
/// each LookupKind, ScaledLookup over robin-hood and over direct tables,
/// and layers that mix direct and robin-hood ELTs.
std::vector<std::pair<std::string, Portfolio>> memory_bound_books() {
  std::vector<std::pair<std::string, Portfolio>> books;
  for (const elt::LookupKind kind : kLookupKinds) {
    books.emplace_back(elt::to_string(kind), memory_bound_portfolio(kind));
  }
  const Portfolio& direct = books[0].second;
  const Portfolio& robin_hood = books[2].second;
  const auto scaled = [](double factor) {
    return [factor](std::size_t, std::size_t, const std::shared_ptr<const elt::ILossLookup>& base)
               -> std::shared_ptr<const elt::ILossLookup> {
      return std::make_shared<elt::ScaledLookup>(base, factor);
    };
  };
  Portfolio scaled_robin_hood = with_lookups(robin_hood, scaled(0.7));
  Portfolio scaled_direct = with_lookups(direct, scaled(1.3));
  Portfolio mixed = with_lookups(direct, [&](std::size_t l, std::size_t e, const auto& lookup) {
    return e % 2 == 0 ? lookup : robin_hood.layers[l].elts[e].lookup;
  });
  books.emplace_back("scaled_robin_hood", std::move(scaled_robin_hood));
  books.emplace_back("scaled_direct", std::move(scaled_direct));
  books.emplace_back("mixed_direct_robin_hood", std::move(mixed));
  return books;
}

/// The shared inputs, built once (~37 MB: the direct and paged books hold
/// ~18 MB of tables each).
struct MemoryBoundInputs {
  std::vector<std::pair<std::string, Portfolio>> books = memory_bound_books();
  const Portfolio& direct = books[0].second;
  yet::YearEventTable yet_table = memory_bound_yet();
};

const MemoryBoundInputs& memory_bound() {
  static const MemoryBoundInputs inputs;
  return inputs;
}

TEST(SparseLayerPath, TakenByEveryLayerButCacheResidentAllDirectOnes) {
  const MemoryBoundInputs& in = memory_bound();
  for (const auto& [name, book] : in.books) {
    for (const core::Layer& layer : book.layers) {
      EXPECT_TRUE(core::SparseLayerTable::wanted(layer)) << name << " layer " << layer.id;
    }
  }
  for (const core::Layer& layer : synthetic_portfolio(1, 3).layers) {
    EXPECT_FALSE(core::SparseLayerTable::wanted(layer));  // 480 KB: dense gathers
  }
  for (const elt::LookupKind kind : kLookupKinds) {
    if (kind == elt::LookupKind::kDirectAccess) continue;
    for (const core::Layer& layer : synthetic_portfolio(1, 3, kind).layers) {
      EXPECT_TRUE(core::SparseLayerTable::wanted(layer)) << elt::to_string(kind);
    }
  }
  // One decorated ELT takes a small direct layer off the dense gathers.
  core::Layer scaled = synthetic_portfolio(1, 3).layers[0];
  scaled.elts[1].lookup = std::make_shared<elt::ScaledLookup>(scaled.elts[1].lookup, 1.0);
  EXPECT_TRUE(core::SparseLayerTable::wanted(scaled));
}

TEST(SparseLayerPath, EveryTableEnumeratesTheBitsItLooksUp) {
  // The synthetic losses plus kInEveryElt and a 0.0 record (kZeroLoss),
  // and a -0.0 record at event 5, which lookup() returns as -0.0.
  constexpr std::size_t kTableUniverse = 300'000;
  const elt::EventLossTable base = memory_bound_elt(kTableUniverse, 7);
  std::vector<elt::EventLoss> records(base.records().begin(), base.records().end());
  std::erase_if(records, [](const elt::EventLoss& record) { return record.event == 5; });
  records.push_back({5, -0.0});
  const elt::EventLossTable table(std::move(records));

  std::vector<std::pair<std::string, std::shared_ptr<const elt::ILossLookup>>> lookups;
  for (const elt::LookupKind kind : kLookupKinds) {
    lookups.emplace_back(elt::to_string(kind), elt::make_lookup(kind, table, kTableUniverse));
  }
  lookups.emplace_back("scaled_robin_hood",
                       std::make_shared<elt::ScaledLookup>(lookups[2].second, 0.7));
  lookups.emplace_back("scaled_direct",
                       std::make_shared<elt::ScaledLookup>(lookups[0].second, 1.3));

  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  for (const auto& [name, lookup] : lookups) {
    SCOPED_TRACE(name);
    std::vector<bool> listed(kTableUniverse + 64, false);
    lookup->for_each_entry([&](std::span<const elt::EventLoss> batch) {
      for (const auto& [event, loss] : batch) {
        ASSERT_LT(event, kTableUniverse);
        EXPECT_FALSE(listed[event]) << "event " << event << " listed twice";
        listed[event] = true;
        EXPECT_EQ(bits(loss), bits(lookup->lookup(event))) << "event " << event;
      }
    });
    // Every stored loss that is not +0.0 is listed; the -0.0 among them.
    for (const elt::EventLoss& record : table.records()) {
      if (bits(record.loss) != 0) {
        EXPECT_TRUE(listed[record.event]) << "event " << record.event;
      }
    }
    EXPECT_TRUE(listed[5]);
    // Everything left out, past the universe included, looks up as +0.0.
    for (elt::EventId event = 0; event < listed.size(); ++event) {
      if (!listed[event]) {
        EXPECT_EQ(bits(lookup->lookup(event)), 0u) << "event " << event;
      }
    }
  }
}

TEST(SparseLayerPath, BitIdenticalToOraclesOnEveryExtensionAndSchedule) {
  const MemoryBoundInputs& in = memory_bound();
  for (const auto& [name, book] : in.books) {
    const auto reference = reference_ylt(book, in.yet_table);
    const auto ground_up = reference_ground_up(book, in.yet_table);
    for (const simd::Extension extension : runnable_extensions()) {
      for (const KernelLaunch::Schedule schedule :
           {KernelLaunch::Schedule::kSerial, KernelLaunch::Schedule::kPool}) {
        SCOPED_TRACE(name + " " + std::string(core::to_string(extension)) +
                     (schedule == KernelLaunch::Schedule::kPool ? " pool" : " serial"));
        TrialKernelConfig config;
        config.extension = extension;
        config.block_trials = 37;
        const KernelLaunch launch{.schedule = schedule, .num_threads = 3, .chunk = 50};
        core::GroundUpLossCache capture(2, in.yet_table);
        config.ground_up_capture = &capture;
        expect_identical(reference, run_kernel(book, in.yet_table, config, launch));
        // Both layers, the -0.0-limit ELTs included: every row folds to
        // the dense fold's signed zero.
        expect_ground_up(ground_up, capture, in.yet_table);
      }
    }
  }
  // The representations agree with each other: only the scaled books
  // differ from the direct one.
  const auto direct = reference_ylt(in.direct, in.yet_table);
  for (const auto& [name, book] : in.books) {
    if (name.starts_with("scaled")) continue;
    SCOPED_TRACE(name);
    expect_identical(direct, run_kernel(book, in.yet_table, {}));
  }
}

TEST(SparseLayerPath, EmptyEltsFoldToPositiveZeros) {
  const MemoryBoundInputs& in = memory_bound();
  Portfolio book;
  book.layers.push_back({.id = 1});
  for (const elt::LookupKind kind : kLookupKinds) {
    book.layers[0].elts.push_back({elt::make_lookup(kind, elt::EventLossTable(), 1'000), {}});
  }
  expect_identical(reference_ylt(book, in.yet_table), run_kernel(book, in.yet_table, {}));
}

TEST(SparseLayerPath, CountsLookupsUnderEachEltsKindAndNeverProbes) {
  const MemoryBoundInputs& in = memory_bound();
  // Mixed book: layer 1 holds direct, robin-hood, direct ELTs; layer 2
  // direct, robin-hood. A scaled robin-hood ELT counts as robin-hood.
  Portfolio book = in.books.back().second;
  ASSERT_EQ(in.books.back().first, "mixed_direct_robin_hood");
  book.layers[1].elts[0].lookup =
      std::make_shared<elt::ScaledLookup>(book.layers[1].elts[1].lookup, 0.5);
  core::AnalysisConfig config;
  config.engine = core::EngineKind::kFused;
  config.num_threads = 3;
  config.telemetry.counters = true;
  obs::TelemetryRegistry::global().reset();
  expect_identical(reference_ylt(book, in.yet_table), core::run({book, in.yet_table, config}));
  const obs::Snapshot counters = obs::TelemetryRegistry::global().snapshot();
  const std::uint64_t events = in.yet_table.total_events();
  EXPECT_EQ(counters.counter_value("elt.direct_access.lookups"), 2 * events);
  EXPECT_EQ(counters.counter_value("elt.robin_hood.lookups"), 3 * events);
  EXPECT_EQ(counters.counter_value("elt.robin_hood.probes"), 0u);
  obs::TelemetryRegistry::global().reset();
}

TEST(SparseLayerPath, WindowEventChunksAndShardedSinkKeepTheBytes) {
  const MemoryBoundInputs& in = memory_bound();
  const CoverageWindow window{0.2f, 0.7f};
  const auto windowed = reference_ylt(in.direct, in.yet_table, &window);
  for (const std::size_t chunk : {std::size_t{0}, std::size_t{1}, std::size_t{13}}) {
    SCOPED_TRACE(chunk);
    TrialKernelConfig config;
    config.extension = simd::best_extension();
    config.window = window;
    config.event_chunk = chunk;
    const KernelLaunch launch{.schedule = KernelLaunch::Schedule::kPool, .num_threads = 3};
    expect_identical(windowed, run_kernel(in.direct, in.yet_table, config, launch));

    // A sharded sink under a 1 KB budget: shards spill and fault back.
    shard::ShardedYearLossTable sharded({1, 2}, in.yet_table.num_trials(), /*shard_trials=*/32,
                                        {.memory_budget_bytes = 1024});
    shard::ShardedYltSink sink(sharded);
    core::run_trial_kernel(in.direct, in.yet_table, config, launch, nullptr, &sink);
    expect_identical(windowed, sharded.materialize());
    EXPECT_GT(sharded.stats().spills, 0u);
  }
}

TEST(SparseLayerPath, CaptureThenReplayEqualsAColdRun) {
  const MemoryBoundInputs& in = memory_bound();
  TrialKernelConfig config;
  config.extension = simd::best_extension();
  const KernelLaunch launch{.schedule = KernelLaunch::Schedule::kPool, .num_threads = 3};
  core::GroundUpLossCache capture(2, in.yet_table);
  config.ground_up_capture = &capture;
  const auto cold = run_kernel(in.direct, in.yet_table, config, launch);
  expect_ground_up(reference_ground_up(in.direct, in.yet_table), capture, in.yet_table);

  config.ground_up_capture = nullptr;
  config.ground_up_replay = &capture;
  expect_identical(cold, run_kernel(in.direct, in.yet_table, config, launch));
  // New layer terms replay from the same ground-up losses.
  Portfolio retermed = in.direct;
  retermed.layers[0].terms = financial::LayerTerms::cat_xl(1e5, 5e5);
  retermed.layers[1].terms = financial::LayerTerms::aggregate_xl(0.0, -0.0);
  expect_identical(reference_ylt(retermed, in.yet_table),
                   run_kernel(retermed, in.yet_table, config, launch));
}

/// Spans named `name` (their 'B' events) in the global trace buffer.
std::size_t trace_spans(const std::string& name) {
  std::ostringstream out;
  obs::TraceBuffer::global().write_chrome_json(out);
  std::istringstream lines(out.str());
  const std::string begin = "{\"name\":\"" + name + "\",\"cat\":\"";
  std::size_t spans = 0;
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind(begin, 0) == 0 && line.find("\"ph\":\"B\"") != std::string::npos) ++spans;
  }
  return spans;
}

TEST(SparseLayerPath, BuiltByACaptureButNotByAReplay) {
  const MemoryBoundInputs& in = memory_bound();
  Portfolio one_layer = in.direct;
  one_layer.layers.resize(1);  // 10.4 MB of dense direct tables
  ASSERT_TRUE(core::SparseLayerTable::wanted(one_layer.layers[0]));
  core::GroundUpLossCache cache(1, in.yet_table);
  core::AnalysisConfig config;
  config.engine = core::EngineKind::kFused;
  config.num_threads = 2;
  config.telemetry.trace = true;
  config.ground_up_capture = &cache;
  obs::TraceBuffer::global().clear();
  const auto cold = core::run({one_layer, in.yet_table, config});
  EXPECT_EQ(trace_spans("kernel.sparse_layer_build"), 1u);

  // A replay reads the ground-up cache only: no table to build.
  config.ground_up_capture = nullptr;
  config.ground_up_replay = &cache;
  obs::TraceBuffer::global().clear();
  expect_identical(cold, core::run({one_layer, in.yet_table, config}));
  EXPECT_EQ(trace_spans("kernel.sparse_layer_build"), 0u);
  EXPECT_GT(trace_spans("kernel.launch"), 0u);
  obs::TraceBuffer::global().clear();
}

TEST(SparseLayerPath, CollectPhasesTimesTheProductionLoop) {
  const MemoryBoundInputs& in = memory_bound();
  core::InstrumentationSink sink;
  core::AnalysisConfig config;
  config.engine = core::EngineKind::kFused;
  config.num_threads = 3;
  config.collect_phases = true;
  config.instrumentation = &sink;
  config.telemetry.counters = true;
  config.telemetry.trace = true;
  obs::TelemetryRegistry::global().reset();
  obs::TraceBuffer::global().clear();
  expect_identical(core::run_sequential(in.direct, in.yet_table),
                   core::run({in.direct, in.yet_table, config}));

  // The timed run takes the folded rows, as production does: no
  // lookup_many batch, and the kernel counts every ELT lookup once.
  EXPECT_EQ(trace_spans("elt.lookup_many"), 0u);
  std::uint64_t elts = 0;
  for (const core::Layer& layer : in.direct.layers) elts += layer.elts.size();
  EXPECT_EQ(obs::TelemetryRegistry::global().snapshot().counter_value("elt.direct_access.lookups"),
            elts * in.yet_table.total_events());
  ASSERT_TRUE(sink.phases.has_value());
  EXPECT_GT(sink.phases->lookup_seconds, 0.0);
  obs::TraceBuffer::global().clear();
}

// --- Delta replay from the sparse ground-up cache -----------------------------
//
// Capture on a cold run, then replay under new layer terms and windows;
// every replay must give the bytes of the seed reference and of a cold
// kernel run of the same request.

/// 203 ragged trials over [0, kUniverse): about a fifth empty, some past 64
/// events (several bitmap words), every timestamp below 0.9 — so
/// kEmptyWindow covers no occurrence.
yet::YearEventTable ragged_yet() {
  std::mt19937_64 rng(15);
  std::vector<elt::EventId> events;
  std::vector<float> times;
  std::vector<std::uint64_t> offsets{0};
  for (std::size_t trial = 0; trial < 203; ++trial) {
    const std::size_t length = rng() % 5 == 0 ? 0 : rng() % 140;
    for (std::size_t k = 0; k < length; ++k) {
      events.push_back(static_cast<elt::EventId>(rng() % kUniverse));
      times.push_back(static_cast<float>(rng() % 900) / 1000.0f);
    }
    std::sort(times.end() - static_cast<std::ptrdiff_t>(length), times.end());
    offsets.push_back(events.size());
  }
  return yet::YearEventTable(std::move(events), std::move(times), std::move(offsets));
}

constexpr CoverageWindow kEmptyWindow{0.9f, 1.0f};

/// Occurrence and aggregate retentions and limits of 0, finite, and
/// unlimited, crossed.
std::vector<financial::LayerTerms> replay_terms() {
  using financial::kUnlimited;
  const std::pair<double, double> bands[] = {{0.0, kUnlimited}, {1e5, 2e6}, {5e4, 0.0}};
  const std::pair<double, double> aggregates[] = {{0.0, kUnlimited}, {3e5, 8e6}, {0.0, 0.0}};
  std::vector<financial::LayerTerms> terms;
  for (const auto& [occ_retention, occ_limit] : bands) {
    for (const auto& [agg_retention, agg_limit] : aggregates) {
      terms.push_back({occ_retention, occ_limit, agg_retention, agg_limit});
    }
  }
  return terms;
}

Portfolio with_terms(Portfolio portfolio, const financial::LayerTerms& terms) {
  for (core::Layer& layer : portfolio.layers) layer.terms = terms;
  return portfolio;
}

TEST(GroundUpReplay, BitIdenticalToColdRunsOnEveryExtensionAndSchedule) {
  const Portfolio portfolio = synthetic_portfolio(2, 3);
  const auto yet_table = ragged_yet();
  const auto ground_up = reference_ground_up(portfolio, yet_table);
  const std::optional<CoverageWindow> windows[] = {std::nullopt, CoverageWindow{0.25f, 0.75f},
                                                   kEmptyWindow};
  for (const simd::Extension extension : runnable_extensions()) {
    for (const KernelLaunch::Schedule schedule :
         {KernelLaunch::Schedule::kSerial, KernelLaunch::Schedule::kPool}) {
      SCOPED_TRACE(std::string(core::to_string(extension)) +
                   (schedule == KernelLaunch::Schedule::kPool ? " pool" : " serial"));
      TrialKernelConfig config;
      config.extension = extension;
      config.block_trials = 17;
      const KernelLaunch launch{.schedule = schedule, .num_threads = 3, .chunk = 20};
      core::GroundUpLossCache cache(2, yet_table);
      config.ground_up_capture = &cache;
      expect_identical(reference_ylt(portfolio, yet_table),
                       run_kernel(portfolio, yet_table, config, launch));
      expect_ground_up(ground_up, cache, yet_table);
      config.ground_up_capture = nullptr;

      for (const financial::LayerTerms& terms : replay_terms()) {
        const Portfolio retermed = with_terms(portfolio, terms);
        for (const std::optional<CoverageWindow>& window : windows) {
          SCOPED_TRACE(testing::Message()
                       << "occ " << terms.occurrence_retention << "/" << terms.occurrence_limit
                       << " agg " << terms.aggregate_retention << "/" << terms.aggregate_limit
                       << " window " << (window ? window->from : -1.0f));
          config.window = window;
          config.ground_up_replay = nullptr;
          const auto cold = run_kernel(retermed, yet_table, config, launch);
          expect_identical(reference_ylt(retermed, yet_table, window ? &*window : nullptr), cold);
          config.ground_up_replay = &cache;
          expect_identical(cold, run_kernel(retermed, yet_table, config, launch));
        }
      }
    }
  }
}

TEST(GroundUpReplay, EventChunksShardedSinkAndInstrumentedPathKeepTheBytes) {
  const Portfolio portfolio = synthetic_portfolio(2, 2, elt::LookupKind::kRobinHood);
  const auto yet_table = ragged_yet();
  const auto ground_up = reference_ground_up(portfolio, yet_table);
  const Portfolio retermed = with_terms(portfolio, {1e5, 2e6, 3e5, 8e6});
  const CoverageWindow window{0.25f, 0.75f};
  const auto expected = reference_ylt(retermed, yet_table, &window);
  for (const std::size_t chunk : {std::size_t{0}, std::size_t{1}, std::size_t{13}}) {
    for (const bool instrument : {false, true}) {
      SCOPED_TRACE(testing::Message() << "chunk " << chunk << (instrument ? " instrumented" : ""));
      TrialKernelConfig config;
      config.extension = simd::best_extension();
      config.block_trials = 23;
      config.event_chunk = chunk;
      config.instrument = instrument;
      const KernelLaunch launch{.schedule = KernelLaunch::Schedule::kPool, .num_threads = 3};
      core::GroundUpLossCache cache(2, yet_table);
      config.ground_up_capture = &cache;
      (void)run_kernel(portfolio, yet_table, config, launch);
      expect_ground_up(ground_up, cache, yet_table);

      config.ground_up_capture = nullptr;
      config.ground_up_replay = &cache;
      config.window = window;
      expect_identical(expected, run_kernel(retermed, yet_table, config, launch));
      // A sharded sink under a 1 KB budget: shards spill and fault back.
      shard::ShardedYearLossTable sharded({1, 2}, yet_table.num_trials(), /*shard_trials=*/32,
                                          {.memory_budget_bytes = 1024});
      shard::ShardedYltSink sink(sharded);
      core::run_trial_kernel(retermed, yet_table, config, launch, nullptr, &sink);
      expect_identical(expected, sharded.materialize());
    }
  }
}

/// One direct ELT per layer with a loss for every catalog event; with
/// `retention` above every loss, every combined loss is +0.0 instead.
Portfolio every_event_book(double retention) {
  std::vector<elt::EventLoss> records;
  for (std::size_t event = 0; event < kUniverse; ++event) {
    records.push_back({static_cast<elt::EventId>(event), 1e3 + static_cast<double>(event)});
  }
  const elt::EventLossTable table(std::move(records));
  Portfolio portfolio;
  for (std::uint32_t id : {1u, 2u}) {
    core::Layer layer;
    layer.id = id;
    layer.terms = {1e4, 5e5, 1e5, 4e6};
    layer.elts.push_back({elt::make_lookup(elt::LookupKind::kDirectAccess, table, kUniverse),
                          {.occurrence_retention = retention, .share = 0.5 * id}});
    portfolio.layers.push_back(std::move(layer));
  }
  return portfolio;
}

TEST(GroundUpReplay, WorstCaseBookFillsExactlyTheEstimate) {
  const Portfolio portfolio = every_event_book(0.0);
  const auto yet_table = ragged_yet();
  TrialKernelConfig config;
  config.extension = simd::best_extension();
  core::GroundUpLossCache cache(2, yet_table);
  config.ground_up_capture = &cache;
  (void)run_kernel(portfolio, yet_table, config);
  expect_ground_up(reference_ground_up(portfolio, yet_table), cache, yet_table);
  EXPECT_EQ(cache.entries(), 2 * yet_table.total_events());
  EXPECT_LE(cache.memory_bytes(), core::GroundUpLossCache::estimate_bytes(2, yet_table));
  EXPECT_EQ(cache.memory_bytes(), core::GroundUpLossCache::estimate_bytes(2, yet_table));

  config.ground_up_capture = nullptr;
  config.ground_up_replay = &cache;
  for (const financial::LayerTerms& terms : replay_terms()) {
    const Portfolio retermed = with_terms(portfolio, terms);
    expect_identical(reference_ylt(retermed, yet_table), run_kernel(retermed, yet_table, config));
  }
}

TEST(GroundUpReplay, AllZeroBookKeepsNoEntries) {
  const Portfolio portfolio = every_event_book(1e12);
  const auto yet_table = ragged_yet();
  TrialKernelConfig config;
  config.extension = simd::best_extension();
  core::GroundUpLossCache cache(2, yet_table);
  config.ground_up_capture = &cache;
  (void)run_kernel(portfolio, yet_table, config);
  expect_ground_up(reference_ground_up(portfolio, yet_table), cache, yet_table);
  EXPECT_EQ(cache.entries(), 0u);

  config.ground_up_capture = nullptr;
  config.ground_up_replay = &cache;
  for (const financial::LayerTerms& terms : replay_terms()) {
    const Portfolio retermed = with_terms(portfolio, terms);
    expect_identical(reference_ylt(retermed, yet_table), run_kernel(retermed, yet_table, config));
  }
}

/// Present entries of a sealed cache whose occurrence the window covers.
std::uint64_t covered_entries(const core::GroundUpLossCache& cache,
                              const yet::YearEventTable& yet_table,
                              const CoverageWindow& window) {
  std::uint64_t covered = 0;
  const auto word_starts = cache.word_starts();
  const auto offsets = yet_table.offsets();
  for (std::size_t layer_index = 0; layer_index < cache.num_layers(); ++layer_index) {
    const auto words = cache.layer(layer_index).words;
    for (std::size_t trial = 0; trial < yet_table.num_trials(); ++trial) {
      for (std::uint64_t k = 0; k < offsets[trial + 1] - offsets[trial]; ++k) {
        covered += (words[word_starts[trial] + k / 64] >> (k % 64) & 1) != 0 &&
                   window.covers(yet_table.times()[offsets[trial] + k]);
      }
    }
  }
  return covered;
}

TEST(GroundUpReplay, ReplayedEntriesCountsEveryFoldedEntryNegativeZerosIncluded) {
  // The memory-bound book's second layer holds nothing but signed zeros:
  // its -0.0 entries are kept, and a replay folds them like any other.
  const MemoryBoundInputs& in = memory_bound();
  TrialKernelConfig config;
  config.extension = simd::best_extension();
  const KernelLaunch launch{.schedule = KernelLaunch::Schedule::kPool, .num_threads = 3};
  core::GroundUpLossCache cache(2, in.yet_table);
  config.ground_up_capture = &cache;
  (void)run_kernel(in.direct, in.yet_table, config, launch);
  const auto second = cache.layer(1).values;
  ASSERT_FALSE(second.empty());
  EXPECT_TRUE(std::ranges::all_of(
      second, [](double x) { return std::bit_cast<std::uint64_t>(x) == 1ull << 63; }));

  config.ground_up_capture = nullptr;
  config.ground_up_replay = &cache;
  obs::TelemetryRegistry& registry = obs::TelemetryRegistry::global();
  obs::set_enabled(true);
  registry.reset();
  (void)run_kernel(in.direct, in.yet_table, config, launch);
  EXPECT_EQ(registry.snapshot().counter_value("kernel.ground_up.replayed_entries"),
            cache.entries());

  const CoverageWindow window{0.2f, 0.7f};
  config.window = window;
  registry.reset();
  (void)run_kernel(in.direct, in.yet_table, config, launch);
  EXPECT_EQ(registry.snapshot().counter_value("kernel.ground_up.replayed_entries"),
            covered_entries(cache, in.yet_table, window));
  obs::set_enabled(false);
}

}  // namespace
