// Tests for CSV and binary serialization: round trips, format validation
// and corruption detection, the version-2 checksum and version-1 reads.
#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <vector>

#include "binary_v1.hpp"
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

// --- Format version 2 -------------------------------------------------------------

yet::YearEventTable sample_yet() {
  yet::YetConfig config;
  config.num_trials = 40;
  config.events_per_trial = 12.0;
  config.count_model = yet::CountModel::kPoisson;
  return yet::generate_uniform_yet(config, 5'000);
}

void expect_same_yet(const yet::YearEventTable& a, const yet::YearEventTable& b) {
  ASSERT_EQ(a.num_trials(), b.num_trials());
  ASSERT_EQ(a.total_events(), b.total_events());
  EXPECT_EQ(0, std::memcmp(a.events().data(), b.events().data(), a.events().size_bytes()));
  EXPECT_EQ(0, std::memcmp(a.times().data(), b.times().data(), a.times().size_bytes()));
  EXPECT_EQ(0, std::memcmp(a.offsets().data(), b.offsets().data(), a.offsets().size_bytes()));
}

std::uint32_t version_field(const std::string& bytes) {
  std::uint32_t version = 0;
  std::memcpy(&version, bytes.data() + 4, sizeof version);
  return version;
}

TEST(Binary, Checksum64KnownValues) {
  // XXH64 with seed 0 (published constants)...
  EXPECT_EQ(io::checksum64("", 0), 0xEF46DB3751D8E999ULL);
  EXPECT_EQ(io::checksum64("a", 1), 0xD24EC4F1A98C6E5BULL);
  EXPECT_EQ(io::checksum64("abc", 3), 0x44BC2CF5AD770999ULL);
  // ...and pinned values around the 32-byte stripe: tail only, one full
  // stripe, one stripe plus a tail byte.
  unsigned char bytes[33];
  for (std::size_t i = 0; i < sizeof bytes; ++i) bytes[i] = static_cast<unsigned char>(i);
  EXPECT_EQ(io::checksum64(bytes, 0), 0xEF46DB3751D8E999ULL);
  EXPECT_EQ(io::checksum64(bytes, 1), 0xE934A84ADB052768ULL);
  EXPECT_EQ(io::checksum64(bytes, 31), 0xC346D2B59B4D8EE1ULL);
  EXPECT_EQ(io::checksum64(bytes, 32), 0xCBF59C5116FF32B4ULL);
  EXPECT_EQ(io::checksum64(bytes, 33), 0x0C535D1ACAFB8EADULL);
  // The seed chains one vector's hash into the next.
  EXPECT_NE(io::checksum64(bytes, 33, 1), io::checksum64(bytes, 33));
}

TEST(Binary, WritersEmitVersion2) {
  std::stringstream elt_stream, yet_stream, shard_stream;
  io::write_elt_binary(elt_stream, sample_elt());
  io::write_yet_binary(yet_stream, sample_yet());
  io::write_shard_binary(shard_stream, std::vector<double>{1.0, 2.0});
  EXPECT_EQ(version_field(elt_stream.str()), 2u);
  EXPECT_EQ(version_field(yet_stream.str()), 2u);
  EXPECT_EQ(version_field(shard_stream.str()), 2u);
}

TEST(Binary, ReadsVersion1YetAndEltIdentically) {
  const yet::YearEventTable original = sample_yet();
  std::stringstream v1_yet(binary_v1::yet_bytes(original));
  expect_same_yet(io::read_yet_binary(v1_yet), original);

  std::stringstream v1_elt(binary_v1::elt_bytes(sample_elt()));
  const elt::EventLossTable restored = io::read_elt_binary(v1_elt);
  const elt::EventLossTable expected = sample_elt();
  ASSERT_EQ(restored.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(restored.records()[i].event, expected.records()[i].event);
    EXPECT_EQ(restored.records()[i].loss, expected.records()[i].loss);
  }

  // A version-1 stream still fails on a flipped payload bit.
  std::string corrupt = binary_v1::yet_bytes(original);
  corrupt[corrupt.size() / 2] ^= 0x04;
  std::stringstream corrupted(corrupt);
  EXPECT_THROW((void)io::read_yet_binary(corrupted), core::StatusError);
}

TEST(Binary, RejectsUnknownVersionAndVersion1Shards) {
  const auto expect_corrupt = [](const auto& read) {
    try {
      read();
      FAIL() << "expected StatusError";
    } catch (const core::StatusError& error) {
      EXPECT_EQ(error.code(), core::StatusCode::kDataCorruption) << error.what();
    }
  };
  const std::uint32_t three = 3;
  std::stringstream yet_stream, elt_stream, shard_stream;
  io::write_yet_binary(yet_stream, sample_yet());
  io::write_elt_binary(elt_stream, sample_elt());
  io::write_shard_binary(shard_stream, std::vector<double>{1.0, 2.0});
  std::string yet_bytes = yet_stream.str(), elt_bytes = elt_stream.str();
  std::memcpy(yet_bytes.data() + 4, &three, sizeof three);
  std::memcpy(elt_bytes.data() + 4, &three, sizeof three);
  expect_corrupt([&] {
    std::stringstream in(yet_bytes);
    (void)io::read_yet_binary(in);
  });
  expect_corrupt([&] {
    std::stringstream in(elt_bytes);
    (void)io::read_elt_binary(in);
  });
  // Spill shards are version 2 only.
  const std::uint32_t one = 1;
  std::string shard_bytes = shard_stream.str();
  std::memcpy(shard_bytes.data() + 4, &one, sizeof one);
  expect_corrupt([&] {
    std::stringstream in(shard_bytes);
    std::vector<double> values(2);
    io::read_shard_binary(in, values);
  });
}

TEST(Binary, DetectsTwoSignFlipsOneStripeApart) {
  // Flipping bit 63 of two words 32 bytes apart hits the same lane in
  // consecutive stripes. A lane of plain multiply-xor rounds would carry
  // the first flip to bit 63 only and the second would cancel it; the
  // rotate in each round spreads it first.
  std::vector<double> values(64);
  for (std::size_t i = 0; i < values.size(); ++i) values[i] = 1.0 + static_cast<double>(i);
  for (const std::size_t at : {std::size_t{4}, std::size_t{8}, std::size_t{9}}) {
    std::vector<double> flipped = values;
    flipped[at] = -flipped[at];          // the sign is bit 63
    flipped[at + 4] = -flipped[at + 4];  // 32 bytes further on
    EXPECT_NE(io::checksum64(flipped.data(), flipped.size() * sizeof(double)),
              io::checksum64(values.data(), values.size() * sizeof(double)))
        << at;
  }

  // And through a spill shard: the reader rejects the doubly-flipped file.
  std::stringstream stream;
  io::write_shard_binary(stream, values);
  std::string bytes = stream.str();
  bytes[16 + 8 * 8 + 7] ^= static_cast<char>(0x80);   // value 8's sign
  bytes[16 + 12 * 8 + 7] ^= static_cast<char>(0x80);  // value 12's sign
  std::stringstream corrupted(bytes);
  std::vector<double> restored(values.size());
  EXPECT_THROW(io::read_shard_binary(corrupted, restored), core::StatusError);
}

TEST(Binary, EmptyEltRoundTrip) {
  std::stringstream stream;
  io::write_elt_binary(stream, elt::EventLossTable{});
  EXPECT_TRUE(io::read_elt_binary(stream).empty());
}

}  // namespace
