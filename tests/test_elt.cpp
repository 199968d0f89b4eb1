// Tests for the ELT module: the canonical EventLossTable and the four
// lookup representations from the paper's design discussion. The central
// property is *equivalence*: every representation must answer every lookup
// exactly like the reference binary search.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "elt/cuckoo_table.hpp"
#include "elt/direct_access_table.hpp"
#include "elt/event_loss_table.hpp"
#include "elt/lookup.hpp"
#include "elt/paged_direct_table.hpp"
#include "elt/robin_hood_table.hpp"
#include "elt/sorted_table.hpp"
#include "elt/synthetic.hpp"
#include "rng/stream.hpp"

namespace {

using namespace are;
using elt::EventLoss;
using elt::EventLossTable;
using elt::LookupKind;

TEST(EventLossTable, EmptyTable) {
  const EventLossTable table;
  EXPECT_TRUE(table.empty());
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.loss_for(0), 0.0);
  EXPECT_EQ(table.total_loss(), 0.0);
}

TEST(EventLossTable, SortsRecords) {
  const EventLossTable table({{5, 50.0}, {1, 10.0}, {3, 30.0}});
  ASSERT_EQ(table.size(), 3u);
  EXPECT_EQ(table.records()[0].event, 1u);
  EXPECT_EQ(table.records()[1].event, 3u);
  EXPECT_EQ(table.records()[2].event, 5u);
  EXPECT_EQ(table.max_event(), 5u);
}

TEST(EventLossTable, CoalescesDuplicatesBySummation) {
  const EventLossTable table({{2, 10.0}, {2, 5.0}, {7, 1.0}, {2, 2.5}});
  ASSERT_EQ(table.size(), 2u);
  EXPECT_DOUBLE_EQ(table.loss_for(2), 17.5);
  EXPECT_DOUBLE_EQ(table.loss_for(7), 1.0);
}

TEST(EventLossTable, LossForMissingEventIsZero) {
  const EventLossTable table({{2, 10.0}, {9, 90.0}});
  EXPECT_EQ(table.loss_for(0), 0.0);
  EXPECT_EQ(table.loss_for(3), 0.0);
  EXPECT_EQ(table.loss_for(10), 0.0);
}

TEST(EventLossTable, RejectsNegativeAndNonFiniteLosses) {
  EXPECT_THROW(EventLossTable({{1, -1.0}}), std::invalid_argument);
  EXPECT_THROW(EventLossTable({{1, std::numeric_limits<double>::quiet_NaN()}}),
               std::invalid_argument);
  EXPECT_THROW(EventLossTable({{1, std::numeric_limits<double>::infinity()}}),
               std::invalid_argument);
}

TEST(EventLossTable, RejectsInvalidEventId) {
  EXPECT_THROW(EventLossTable({{catalog::kInvalidEvent, 1.0}}), std::invalid_argument);
}

TEST(EventLossTable, TotalLoss) {
  const EventLossTable table({{1, 10.0}, {2, 20.0}, {3, 30.0}});
  EXPECT_DOUBLE_EQ(table.total_loss(), 60.0);
}

// --- Parameterized equivalence over every lookup representation ------------

class LookupEquivalence : public ::testing::TestWithParam<LookupKind> {};

TEST_P(LookupEquivalence, MatchesReferenceOnEveryUniverseId) {
  constexpr std::size_t kUniverse = 5'000;
  elt::SyntheticEltConfig config;
  config.catalog_size = kUniverse;
  config.entries = 700;
  config.seed = 99;
  const EventLossTable reference = elt::make_synthetic_elt(config);

  const auto lookup = elt::make_lookup(GetParam(), reference, kUniverse);
  ASSERT_EQ(lookup->kind(), GetParam());
  EXPECT_EQ(lookup->entry_count(), reference.size());

  for (std::size_t id = 0; id < kUniverse; ++id) {
    const auto event = static_cast<elt::EventId>(id);
    ASSERT_DOUBLE_EQ(lookup->lookup(event), reference.loss_for(event)) << "event " << id;
  }
}

TEST_P(LookupEquivalence, EmptyTableAlwaysReturnsZero) {
  const EventLossTable empty;
  const auto lookup = elt::make_lookup(GetParam(), empty, 100);
  EXPECT_EQ(lookup->entry_count(), 0u);
  for (elt::EventId event = 0; event < 100; ++event) {
    EXPECT_EQ(lookup->lookup(event), 0.0);
  }
}

TEST_P(LookupEquivalence, SingleEntry) {
  const EventLossTable table({{42, 7.5}});
  const auto lookup = elt::make_lookup(GetParam(), table, 100);
  EXPECT_DOUBLE_EQ(lookup->lookup(42), 7.5);
  EXPECT_EQ(lookup->lookup(41), 0.0);
  EXPECT_EQ(lookup->lookup(43), 0.0);
  EXPECT_EQ(lookup->lookup(0), 0.0);
  EXPECT_EQ(lookup->lookup(99), 0.0);
}

TEST_P(LookupEquivalence, BoundaryEventIds) {
  // First and last id of the universe both present.
  const EventLossTable table({{0, 1.0}, {999, 2.0}});
  const auto lookup = elt::make_lookup(GetParam(), table, 1000);
  EXPECT_DOUBLE_EQ(lookup->lookup(0), 1.0);
  EXPECT_DOUBLE_EQ(lookup->lookup(999), 2.0);
  EXPECT_EQ(lookup->lookup(500), 0.0);
}

TEST_P(LookupEquivalence, OutOfUniverseIdReturnsZero) {
  const EventLossTable table({{10, 5.0}});
  const auto lookup = elt::make_lookup(GetParam(), table, 64);
  EXPECT_EQ(lookup->lookup(64), 0.0);
  EXPECT_EQ(lookup->lookup(catalog::kInvalidEvent - 1), 0.0);
}

TEST_P(LookupEquivalence, RejectsEventBeyondUniverse) {
  const EventLossTable table({{100, 5.0}});
  EXPECT_THROW(elt::make_lookup(GetParam(), table, 100), std::invalid_argument);
}

TEST_P(LookupEquivalence, MemoryIsReported) {
  elt::SyntheticEltConfig config;
  config.catalog_size = 10'000;
  config.entries = 500;
  const auto lookup = elt::make_lookup(GetParam(), elt::make_synthetic_elt(config), 10'000);
  EXPECT_GT(lookup->memory_bytes(), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, LookupEquivalence,
                         ::testing::Values(LookupKind::kDirectAccess, LookupKind::kSortedVector,
                                           LookupKind::kRobinHood, LookupKind::kCuckoo,
                                           LookupKind::kPagedDirect),
                         [](const auto& info) { return std::string(to_string(info.param)); });

// --- Representation-specific behaviour --------------------------------------

TEST(DirectAccessTable, MemoryIsUniverseSized) {
  // The paper's trade-off made concrete: memory scales with the catalog,
  // not the ELT (plus the 4 B event id each entry keeps for the sparse
  // layer table).
  const EventLossTable table({{1, 1.0}});
  const elt::DirectAccessTable small(table, 1'000);
  const elt::DirectAccessTable large(table, 100'000);
  EXPECT_EQ(small.memory_bytes(), 1'000 * sizeof(double) + sizeof(elt::EventId));
  EXPECT_EQ(large.memory_bytes(), 100'000 * sizeof(double) + sizeof(elt::EventId));
  EXPECT_EQ(large.universe(), 100'000u);
  ASSERT_NE(large.data(), nullptr);
  EXPECT_DOUBLE_EQ(large.data()[1], 1.0);
}

TEST(DirectAccessTable, RemembersItsEventsInOrder) {
  const EventLossTable table({{7, 2.0}, {3, 0.0}, {900, 1.5}});
  const elt::DirectAccessTable direct(table, 1'000);
  const std::vector<elt::EventId> expected{3, 7, 900};
  EXPECT_TRUE(std::ranges::equal(direct.present_events(), expected));
  EXPECT_EQ(direct.entry_count(), 3u);
  // A record with loss 0.0 is still an entry of the ELT.
  EXPECT_EQ(direct.lookup(3), 0.0);
}

TEST(SortedTable, MemoryIsEntrySized) {
  elt::SyntheticEltConfig config;
  config.catalog_size = 1'000'000;
  config.entries = 1'000;
  const elt::SortedTable table(elt::make_synthetic_elt(config), 1'000'000);
  EXPECT_EQ(table.memory_bytes(), 1'000 * (sizeof(elt::EventId) + sizeof(double)));
}

TEST(RobinHoodTable, ProbeDistancesStayBounded) {
  elt::SyntheticEltConfig config;
  config.catalog_size = 200'000;
  config.entries = 30'000;
  const elt::RobinHoodTable table(elt::make_synthetic_elt(config), 200'000);
  // Robin Hood at load factor <= 0.7 keeps worst-case probes modest.
  EXPECT_LE(table.max_probe_distance(), 32u);
}

TEST(CuckooTable, BuildsLargeTableWithFewRebuilds) {
  elt::SyntheticEltConfig config;
  config.catalog_size = 500'000;
  config.entries = 30'000;
  const elt::CuckooTable table(elt::make_synthetic_elt(config), 500'000);
  EXPECT_EQ(table.entry_count(), 30'000u);
  EXPECT_LE(table.rebuild_count(), 8);
}

TEST(CuckooTable, SpaceOverheadIsModest) {
  // Pagh-Rodler promises ~2x slots for n keys. Our slots are 24 bytes
  // (key + loss + occupancy flag, padded) vs 12 compact, and each of the
  // two tables rounds to a power of two, so the worst case is
  // 2 * 2 * (24/12) = 8x the compact bytes.
  elt::SyntheticEltConfig config;
  config.catalog_size = 100'000;
  config.entries = 10'000;
  const EventLossTable reference = elt::make_synthetic_elt(config);
  const elt::CuckooTable table(reference, 100'000);
  const std::size_t compact = reference.size() * (sizeof(elt::EventId) + sizeof(double));
  EXPECT_LE(table.memory_bytes(), compact * 8);
}

// --- Synthetic ELT generator -------------------------------------------------

TEST(SyntheticElt, DeterministicInSeedAndId) {
  elt::SyntheticEltConfig config;
  config.catalog_size = 10'000;
  config.entries = 100;
  const EventLossTable a = elt::make_synthetic_elt(config);
  const EventLossTable b = elt::make_synthetic_elt(config);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.records()[i], b.records()[i]);
  }

  config.elt_id = 1;
  const EventLossTable c = elt::make_synthetic_elt(config);
  bool any_difference = a.size() != c.size();
  for (std::size_t i = 0; !any_difference && i < a.size(); ++i) {
    any_difference = !(a.records()[i] == c.records()[i]);
  }
  EXPECT_TRUE(any_difference);
}

TEST(SyntheticElt, ExactEntryCountAndDistinctIds) {
  elt::SyntheticEltConfig config;
  config.catalog_size = 50'000;
  config.entries = 5'000;
  const EventLossTable table = elt::make_synthetic_elt(config);
  EXPECT_EQ(table.size(), 5'000u);  // EventLossTable dedups: distinct ids proven by count
  EXPECT_LT(table.max_event(), 50'000u);
}

TEST(SyntheticElt, DenseRegimeSelectionSweep) {
  elt::SyntheticEltConfig config;
  config.catalog_size = 1'000;
  config.entries = 900;  // > 1/3 of universe: exercises the sweep path
  const EventLossTable table = elt::make_synthetic_elt(config);
  EXPECT_EQ(table.size(), 900u);
}

TEST(SyntheticElt, FullUniverse) {
  elt::SyntheticEltConfig config;
  config.catalog_size = 256;
  config.entries = 256;
  const EventLossTable table = elt::make_synthetic_elt(config);
  EXPECT_EQ(table.size(), 256u);
  for (elt::EventId event = 0; event < 256; ++event) {
    EXPECT_GT(table.loss_for(event), 0.0);
  }
}

TEST(SyntheticElt, RejectsMoreEntriesThanUniverse) {
  elt::SyntheticEltConfig config;
  config.catalog_size = 10;
  config.entries = 11;
  EXPECT_THROW(elt::make_synthetic_elt(config), std::invalid_argument);
}

TEST(SyntheticElt, ZeroEntriesGivesEmptyTable) {
  elt::SyntheticEltConfig config;
  config.entries = 0;
  EXPECT_TRUE(elt::make_synthetic_elt(config).empty());
}

TEST(MakeLookup, AllKindsConstructible) {
  const EventLossTable table({{3, 1.0}, {7, 2.0}});
  for (const auto kind : {LookupKind::kDirectAccess, LookupKind::kSortedVector,
                          LookupKind::kRobinHood, LookupKind::kCuckoo,
                          LookupKind::kPagedDirect}) {
    const auto lookup = elt::make_lookup(kind, table, 10);
    EXPECT_EQ(lookup->kind(), kind);
    EXPECT_DOUBLE_EQ(lookup->lookup(7), 2.0);
  }
}

TEST(PagedDirectTable, ClusteredEltTouchesFewPages) {
  // A regional book: 2000 entries clustered in one 16K-id band of a 1M-id
  // catalog. The paged table materialises only the touched band while the
  // flat direct table pays for the whole universe.
  std::vector<EventLoss> records;
  for (std::uint32_t i = 0; i < 2'000; ++i) {
    records.push_back({500'000 + i * 8, 1.0 + i});
  }
  const EventLossTable table(std::move(records));
  const elt::PagedDirectTable paged(table, 1'000'000);
  const elt::DirectAccessTable flat(table, 1'000'000);

  EXPECT_LT(paged.memory_bytes(), flat.memory_bytes() / 10);
  EXPECT_LE(paged.touched_pages(), 2'000u * 8 / elt::PagedDirectTable::kPageSize + 2);
  // And still answers identically.
  for (std::uint32_t i = 0; i < 2'000; ++i) {
    const auto event = static_cast<elt::EventId>(500'000 + i * 8);
    EXPECT_DOUBLE_EQ(paged.lookup(event), flat.lookup(event));
    EXPECT_DOUBLE_EQ(paged.lookup(event + 1), 0.0);
  }
}

TEST(PagedDirectTable, UniformEltDegeneratesToDirectPlusPageTable) {
  // Uniform 20K entries over 2M ids touch nearly every 512-slot page, so
  // memory approaches the flat table's — the paper's workload regime.
  elt::SyntheticEltConfig config;
  config.catalog_size = 2'000'000;
  config.entries = 20'000;
  const EventLossTable table = elt::make_synthetic_elt(config);
  const elt::PagedDirectTable paged(table, 2'000'000);
  const double touched_fraction = static_cast<double>(paged.touched_pages()) /
                                  static_cast<double>(paged.total_pages());
  EXPECT_GT(touched_fraction, 0.95);
}

}  // namespace
