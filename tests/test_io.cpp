// Tests for CSV and binary serialization: round trips, format validation
// and corruption detection.
#include <gtest/gtest.h>

#include <cstring>
#include <sstream>

#include "core/status.hpp"
#include "core/year_loss_table.hpp"
#include "io/binary.hpp"
#include "io/csv.hpp"
#include "metrics/ep_curve.hpp"
#include "yet/generator.hpp"

namespace {

using namespace are;

elt::EventLossTable sample_elt() {
  return elt::EventLossTable({{3, 12.5}, {100, 7.25}, {7, 0.125}});
}

// --- CSV ------------------------------------------------------------------------

TEST(Csv, EltRoundTrip) {
  std::stringstream stream;
  io::write_elt_csv(stream, sample_elt());
  const auto restored = io::read_elt_csv(stream);
  ASSERT_EQ(restored.size(), 3u);
  EXPECT_DOUBLE_EQ(restored.loss_for(3), 12.5);
  EXPECT_DOUBLE_EQ(restored.loss_for(7), 0.125);
  EXPECT_DOUBLE_EQ(restored.loss_for(100), 7.25);
}

TEST(Csv, EmptyEltRoundTrip) {
  std::stringstream stream;
  io::write_elt_csv(stream, elt::EventLossTable{});
  EXPECT_TRUE(io::read_elt_csv(stream).empty());
}

TEST(Csv, ReadRejectsMalformedInput) {
  {
    std::stringstream stream("");
    EXPECT_THROW(io::read_elt_csv(stream), std::runtime_error);
  }
  {
    std::stringstream stream("wrong,header\n1,2\n");
    EXPECT_THROW(io::read_elt_csv(stream), std::runtime_error);
  }
  {
    std::stringstream stream("event_id,loss\nnot_a_number,2\n");
    EXPECT_THROW(io::read_elt_csv(stream), std::runtime_error);
  }
  {
    std::stringstream stream("event_id,loss\n1\n");
    EXPECT_THROW(io::read_elt_csv(stream), std::runtime_error);
  }
  {
    std::stringstream stream("event_id,loss\n1,abc\n");
    EXPECT_THROW(io::read_elt_csv(stream), std::runtime_error);
  }
}

TEST(Csv, ReadSkipsBlankLines) {
  std::stringstream stream("event_id,loss\n1,2.0\n\n3,4.0\n");
  const auto table = io::read_elt_csv(stream);
  EXPECT_EQ(table.size(), 2u);
}

TEST(Csv, YltHasHeaderAndAllTrials) {
  core::YearLossTable ylt({10, 20}, 3);
  ylt.at(0, 1) = 5.5;
  ylt.at(1, 2) = 7.0;
  std::stringstream stream;
  io::write_ylt_csv(stream, ylt);

  std::string line;
  std::getline(stream, line);
  EXPECT_EQ(line, "trial,layer_10,layer_20");
  int rows = 0;
  while (std::getline(stream, line)) ++rows;
  EXPECT_EQ(rows, 3);
}

TEST(Csv, EpTableFormat) {
  const std::vector<metrics::EpPoint> points{{0.01, 100.0, 5e6}, {0.004, 250.0, 9e6}};
  std::stringstream stream;
  io::write_ep_csv(stream, points);
  std::string line;
  std::getline(stream, line);
  EXPECT_EQ(line, "return_period,probability,loss");
  std::getline(stream, line);
  EXPECT_EQ(io::split_csv_line(line).size(), 3u);
}

TEST(Csv, SplitHandlesEdgeCases) {
  EXPECT_EQ(io::split_csv_line("a,b,c").size(), 3u);
  EXPECT_EQ(io::split_csv_line("").size(), 1u);
  EXPECT_EQ(io::split_csv_line(",").size(), 2u);
  EXPECT_EQ(io::split_csv_line("a,,c")[1], "");
}

// --- Binary ---------------------------------------------------------------------

TEST(Binary, EltRoundTrip) {
  std::stringstream stream;
  io::write_elt_binary(stream, sample_elt());
  const auto restored = io::read_elt_binary(stream);
  ASSERT_EQ(restored.size(), 3u);
  EXPECT_DOUBLE_EQ(restored.loss_for(3), 12.5);
  EXPECT_DOUBLE_EQ(restored.loss_for(100), 7.25);
}

TEST(Binary, YetRoundTrip) {
  yet::YetConfig config;
  config.num_trials = 50;
  config.events_per_trial = 20.0;
  config.count_model = yet::CountModel::kPoisson;
  const auto original = yet::generate_uniform_yet(config, 1'000);

  std::stringstream stream;
  io::write_yet_binary(stream, original);
  const auto restored = io::read_yet_binary(stream);

  ASSERT_EQ(restored.num_trials(), original.num_trials());
  ASSERT_EQ(restored.total_events(), original.total_events());
  for (std::size_t i = 0; i < original.total_events(); ++i) {
    EXPECT_EQ(restored.events()[i], original.events()[i]);
    EXPECT_EQ(restored.times()[i], original.times()[i]);
  }
}

TEST(Binary, DetectsCorruption) {
  std::stringstream stream;
  io::write_elt_binary(stream, sample_elt());
  std::string bytes = stream.str();
  bytes[bytes.size() / 2] ^= 0x01;  // flip one payload bit
  std::stringstream corrupted(bytes);
  EXPECT_THROW(io::read_elt_binary(corrupted), std::runtime_error);
}

TEST(Binary, DetectsTruncation) {
  std::stringstream stream;
  io::write_elt_binary(stream, sample_elt());
  const std::string bytes = stream.str();
  std::stringstream truncated(bytes.substr(0, bytes.size() - 9));
  EXPECT_THROW(io::read_elt_binary(truncated), std::runtime_error);
}

TEST(Binary, RejectsWrongMagic) {
  std::stringstream stream;
  io::write_elt_binary(stream, sample_elt());
  EXPECT_THROW(io::read_yet_binary(stream), std::runtime_error);  // YET reader on ELT bytes
}

TEST(Binary, Fnv1aKnownValues) {
  // FNV-1a 64 of "a" and "" (published constants).
  EXPECT_EQ(io::fnv1a("", 0), 0xcbf29ce484222325ULL);
  EXPECT_EQ(io::fnv1a("a", 1), 0xaf63dc4c8601ec8cULL);
}

TEST(Binary, RejectsLengthFieldBeyondTheStreamBeforeAllocating) {
  // A corrupt count field must fail as data corruption, not as a 64 GB
  // allocation attempt: the length is checked against the bytes left.
  yet::YetConfig config;
  config.num_trials = 10;
  config.events_per_trial = 5.0;
  std::stringstream stream;
  io::write_yet_binary(stream, yet::generate_uniform_yet(config, 100));
  std::string bytes = stream.str();
  const std::uint64_t huge = 1ULL << 33;
  std::memcpy(bytes.data() + 8, &huge, sizeof huge);  // after magic + version
  std::stringstream corrupted(bytes);
  try {
    (void)io::read_yet_binary(corrupted);
    FAIL() << "expected StatusError";
  } catch (const core::StatusError& error) {
    EXPECT_EQ(error.code(), core::StatusCode::kDataCorruption) << error.what();
  }
}

TEST(Binary, EmptyEltRoundTrip) {
  std::stringstream stream;
  io::write_elt_binary(stream, elt::EventLossTable{});
  EXPECT_TRUE(io::read_elt_binary(stream).empty());
}

}  // namespace
