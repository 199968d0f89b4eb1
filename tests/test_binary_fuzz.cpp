// Deterministic mutation fuzzing of the untrusted-input binary readers,
// io::read_{yet,elt,shard}_binary. The seed corpus is the writers'
// version-2 output plus version-1 YET/ELT streams; each iteration applies
// seeded bit flips, a truncation, or a length-field overwrite. Every read
// must either succeed or throw core::StatusError — no other exception, no
// crash (the sanitizer CI jobs run this suite) — and no single allocation
// may exceed what the input bytes could justify.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <iterator>
#include <new>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "binary_v1.hpp"
#include "core/status.hpp"
#include "io/binary.hpp"
#include "yet/generator.hpp"

namespace {

// Largest single allocation this thread made while `tracking` was set.
thread_local bool tracking = false;
thread_local std::size_t largest_allocation = 0;

}  // namespace

// Replaced global allocation functions record the largest request while a
// read runs. Every variant a plain or nothrow new/delete can reach is
// replaced, so allocations and frees always pair up (malloc with free).
void* operator new(std::size_t size) {
  if (tracking && size > largest_allocation) largest_allocation = size;
  if (void* memory = std::malloc(size == 0 ? 1 : size)) return memory;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return ::operator new(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
void operator delete(void* memory) noexcept { std::free(memory); }
void operator delete[](void* memory) noexcept { std::free(memory); }
void operator delete(void* memory, std::size_t) noexcept { std::free(memory); }
void operator delete[](void* memory, std::size_t) noexcept { std::free(memory); }
void operator delete(void* memory, const std::nothrow_t&) noexcept { std::free(memory); }
void operator delete[](void* memory, const std::nothrow_t&) noexcept { std::free(memory); }

namespace {

using namespace are;

/// One seed input: its bytes, the element size of each length-prefixed
/// vector in order (to find the length fields), and how to read it.
struct Seed {
  std::string name;
  std::string bytes;
  std::vector<std::size_t> element_sizes;
  std::function<void(std::istream&)> read;
};

std::vector<Seed> corpus() {
  yet::YetConfig yet_config;
  yet_config.num_trials = 24;
  yet_config.events_per_trial = 6.0;
  yet_config.count_model = yet::CountModel::kPoisson;
  const yet::YearEventTable yet_table = yet::generate_uniform_yet(yet_config, 2'000);
  std::vector<elt::EventLoss> records;
  for (std::uint32_t i = 0; i < 40; ++i) records.push_back({i * 7 + 1, 1000.0 + i * 12.5});
  const elt::EventLossTable elt_table(records);
  std::vector<double> shard(48);
  for (std::size_t i = 0; i < shard.size(); ++i) shard[i] = static_cast<double>(i) * 3.25e5;

  const auto read_yet = [](std::istream& in) { (void)io::read_yet_binary(in); };
  const auto read_elt = [](std::istream& in) { (void)io::read_elt_binary(in); };
  const auto read_shard = [n = shard.size()](std::istream& in) {
    std::vector<double> values(n);
    io::read_shard_binary(in, values);
  };

  std::ostringstream yet_v2, elt_v2, shard_v2;
  io::write_yet_binary(yet_v2, yet_table);
  io::write_elt_binary(elt_v2, elt_table);
  io::write_shard_binary(shard_v2, shard);
  return {
      {"yet v2", yet_v2.str(), {4, 4, 8}, read_yet},
      {"elt v2", elt_v2.str(), {4, 8}, read_elt},
      {"shard v2", shard_v2.str(), {8}, read_shard},
      {"yet v1", binary_v1::yet_bytes(yet_table), {4, 4, 8}, read_yet},
      {"elt v1", binary_v1::elt_bytes(elt_table), {4, 8}, read_elt},
  };
}

/// Byte offsets of the seed's length fields: the first follows the 8-byte
/// magic + version header, each next one follows the previous payload.
std::vector<std::size_t> length_fields(const Seed& seed) {
  std::vector<std::size_t> offsets;
  std::size_t at = 8;
  for (const std::size_t element_size : seed.element_sizes) {
    offsets.push_back(at);
    std::uint64_t count = 0;
    std::memcpy(&count, seed.bytes.data() + at, sizeof count);
    at += sizeof count + count * element_size;
  }
  return offsets;
}

std::string mutate(const Seed& seed, const std::vector<std::size_t>& fields,
                   std::mt19937_64& rng) {
  std::string bytes = seed.bytes;
  const auto pick = [&](std::size_t n) { return static_cast<std::size_t>(rng() % n); };
  switch (pick(3)) {
    case 0: {  // 1-4 bit flips anywhere, header included
      for (std::size_t flips = 1 + pick(4); flips > 0; --flips) {
        bytes[pick(bytes.size())] ^= static_cast<char>(1u << pick(8));
      }
      break;
    }
    case 1:  // truncation
      bytes.resize(pick(bytes.size()));
      break;
    default: {  // a length field overwritten with a boundary or random value
      const std::size_t at = fields[pick(fields.size())];
      std::uint64_t count = 0;
      std::memcpy(&count, bytes.data() + at, sizeof count);
      const std::uint64_t left = bytes.size() - at - sizeof count;
      const std::uint64_t candidates[] = {0,         1,           count - 1,  count + 1,
                                          left,      left / 4 + 1, 1ULL << 33, 1ULL << 63,
                                          ~0ULL,     rng()};
      const std::uint64_t value = candidates[pick(std::size(candidates))];
      std::memcpy(bytes.data() + at, &value, sizeof value);
      break;
    }
  }
  return bytes;
}

TEST(BinaryFuzz, MutatedInputsFailAsDataErrorsWithinTheirBytes) {
  constexpr int kIterations = 3'000;
  std::mt19937_64 rng(20'260'517);
  for (const Seed& seed : corpus()) {
    {
      std::istringstream in(seed.bytes);
      ASSERT_NO_THROW(seed.read(in)) << seed.name << ": the unmutated seed must read";
    }
    const std::vector<std::size_t> fields = length_fields(seed);
    int rejected = 0;
    for (int iteration = 0; iteration < kIterations; ++iteration) {
      const std::string bytes = mutate(seed, fields, rng);
      std::istringstream in(bytes);
      bool threw = false;
      largest_allocation = 0;
      tracking = true;
      try {
        seed.read(in);
      } catch (const core::StatusError&) {
        threw = true;
      } catch (const std::exception& error) {
        tracking = false;
        ADD_FAILURE() << seed.name << " iteration " << iteration
                      << ": non-StatusError exception: " << error.what();
        continue;
      }
      tracking = false;
      rejected += threw ? 1 : 0;
      // A rejected read may allocate no more than the input holds (plus an
      // error message); an accepted one decodes at most 16 bytes of record
      // per 12 input bytes.
      const std::size_t limit = threw ? bytes.size() + 1024 : 2 * bytes.size() + 1024;
      EXPECT_LE(largest_allocation, limit) << seed.name << " iteration " << iteration;
    }
    // Nearly every mutation must be caught; only a no-op one (a length
    // overwritten with its own value) reads back.
    EXPECT_GT(rejected, kIterations * 9 / 10) << seed.name;
  }
}

}  // namespace
