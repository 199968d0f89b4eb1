#include "io/binary.hpp"

#include <bit>
#include <cstring>
#include <istream>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/status.hpp"
#include "fault/fault_injection.hpp"

namespace are::io {

namespace {

// Corruption and I/O failures carry taxonomy codes so the service boundary
// can classify them; StatusError derives from std::runtime_error, so
// existing catch sites are unaffected.
[[noreturn]] void throw_corrupt(const std::string& message) {
  throw core::StatusError(core::StatusCode::kDataCorruption, message);
}

}  // namespace

namespace {

constexpr std::uint32_t kEltMagic = 0x454C5431;    // "ELT1"
constexpr std::uint32_t kYetMagic = 0x59455431;    // "YET1"
constexpr std::uint32_t kShardMagic = 0x53485244;  // "SHRD"
constexpr std::uint32_t kVersionFnv = 1;  // per-vector fnv1a, XOR-ed
constexpr std::uint32_t kVersion = 2;     // chained checksum64; what writers emit

template <typename T>
void write_pod(std::ostream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
T read_pod(std::istream& in) {
  T value;
  in.read(reinterpret_cast<char*>(&value), sizeof(T));
  if (!in) throw_corrupt("truncated binary stream");
  return value;
}

template <typename T>
void write_vector(std::ostream& out, const std::vector<T>& values, std::uint64_t& hash) {
  const auto count = static_cast<std::uint64_t>(values.size());
  write_pod(out, count);
  out.write(reinterpret_cast<const char*>(values.data()),
            static_cast<std::streamsize>(values.size() * sizeof(T)));
  hash = checksum64(values.data(), values.size() * sizeof(T), hash);
}

/// Bytes between the read position and the end of the stream, or
/// std::nullopt for a stream that cannot seek (the position is restored).
std::optional<std::uint64_t> bytes_left(std::istream& in) {
  const std::streampos here = in.tellg();
  if (here == std::streampos(-1)) return std::nullopt;
  in.seekg(0, std::ios::end);
  const std::streampos end = in.tellg();
  in.clear();
  in.seekg(here);
  if (end == std::streampos(-1) || end < here) return std::nullopt;
  return static_cast<std::uint64_t>(end - here);
}

template <typename T>
std::vector<T> read_vector(std::istream& in, std::uint32_t version, std::uint64_t& hash) {
  const auto count = read_pod<std::uint64_t>(in);
  // Refuse a corrupt count field before allocating: it may not claim more
  // bytes than the stream still holds (or, on a stream that cannot seek,
  // more than an implausible 2^33 elements).
  const std::optional<std::uint64_t> left = bytes_left(in);
  if (left ? count > *left / sizeof(T) : count > (1ULL << 33)) {
    throw_corrupt("vector length " + std::to_string(count) + " in binary stream exceeds " +
                  (left ? "the " + std::to_string(*left) + " bytes left" : "2^33 elements"));
  }
  std::vector<T> values(static_cast<std::size_t>(count));
  in.read(reinterpret_cast<char*>(values.data()),
          static_cast<std::streamsize>(values.size() * sizeof(T)));
  if (!in) throw_corrupt("truncated binary stream");
  const std::size_t bytes = values.size() * sizeof(T);
  hash = version == kVersionFnv ? hash ^ fnv1a(values.data(), bytes)
                                : checksum64(values.data(), bytes, hash);
  return values;
}

/// Checks the magic and returns the format version, which must lie in
/// [oldest, kVersion].
std::uint32_t check_header(std::istream& in, std::uint32_t magic, std::uint32_t oldest) {
  if (read_pod<std::uint32_t>(in) != magic) throw_corrupt("bad magic in binary stream");
  const auto version = read_pod<std::uint32_t>(in);
  if (version < oldest || version > kVersion) {
    throw_corrupt("unsupported binary format version " + std::to_string(version));
  }
  return version;
}

void check_footer(std::istream& in, std::uint64_t hash) {
  if (read_pod<std::uint64_t>(in) != hash) {
    throw_corrupt("checksum mismatch: corrupt binary stream");
  }
}

}  // namespace

std::uint64_t checksum64(const void* data, std::size_t size, std::uint64_t seed) noexcept {
  // XXH64. Words are read little-endian through memcpy, like every other
  // field of these formats.
  constexpr std::uint64_t kP1 = 0x9E3779B185EBCA87ULL;
  constexpr std::uint64_t kP2 = 0xC2B2AE3D27D4EB4FULL;
  constexpr std::uint64_t kP3 = 0x165667B19E3779F9ULL;
  constexpr std::uint64_t kP4 = 0x85EBCA77C2B2AE63ULL;
  constexpr std::uint64_t kP5 = 0x27D4EB2F165667C5ULL;
  const auto round = [](std::uint64_t acc, std::uint64_t word) {
    return std::rotl(acc + word * kP2, 31) * kP1;
  };
  const auto word64 = [](const unsigned char* at) {
    std::uint64_t word = 0;
    std::memcpy(&word, at, sizeof word);
    return word;
  };

  const auto* at = static_cast<const unsigned char*>(data);
  const unsigned char* const end = at + size;
  std::uint64_t hash = seed + kP5;
  if (size >= 32) {
    // Four lanes, each a serial chain over every fourth word: the chains
    // are independent, so their multiplies overlap in the pipeline.
    std::uint64_t lane0 = seed + kP1 + kP2;
    std::uint64_t lane1 = seed + kP2;
    std::uint64_t lane2 = seed;
    std::uint64_t lane3 = seed - kP1;
    for (; end - at >= 32; at += 32) {
      lane0 = round(lane0, word64(at));
      lane1 = round(lane1, word64(at + 8));
      lane2 = round(lane2, word64(at + 16));
      lane3 = round(lane3, word64(at + 24));
    }
    hash = std::rotl(lane0, 1) + std::rotl(lane1, 7) + std::rotl(lane2, 12) + std::rotl(lane3, 18);
    for (const std::uint64_t lane : {lane0, lane1, lane2, lane3}) {
      hash = (hash ^ round(0, lane)) * kP1 + kP4;
    }
  }
  hash += size;

  // The tail: whole words, then one 4-byte word, then single bytes.
  for (; end - at >= 8; at += 8) hash = std::rotl(hash ^ round(0, word64(at)), 27) * kP1 + kP4;
  if (end - at >= 4) {
    std::uint32_t word = 0;
    std::memcpy(&word, at, sizeof word);
    hash = std::rotl(hash ^ (word * kP1), 23) * kP2 + kP3;
    at += 4;
  }
  for (; at < end; ++at) hash = std::rotl(hash ^ (*at * kP5), 11) * kP1;

  hash ^= hash >> 33;
  hash *= kP2;
  hash ^= hash >> 29;
  hash *= kP3;
  hash ^= hash >> 32;
  return hash;
}

std::uint64_t fnv1a(const void* data, std::size_t size) noexcept {
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

void write_elt_binary(std::ostream& out, const elt::EventLossTable& table) {
  write_pod(out, kEltMagic);
  write_pod(out, kVersion);
  std::uint64_t hash = 0;
  std::vector<elt::EventId> events;
  std::vector<double> losses;
  events.reserve(table.size());
  losses.reserve(table.size());
  for (const elt::EventLoss& record : table.records()) {
    events.push_back(record.event);
    losses.push_back(record.loss);
  }
  write_vector(out, events, hash);
  write_vector(out, losses, hash);
  write_pod(out, hash);
}

elt::EventLossTable read_elt_binary(std::istream& in) {
  const std::uint32_t version = check_header(in, kEltMagic, kVersionFnv);
  std::uint64_t hash = 0;
  const auto events = read_vector<elt::EventId>(in, version, hash);
  const auto losses = read_vector<double>(in, version, hash);
  check_footer(in, hash);
  if (events.size() != losses.size()) {
    throw_corrupt("ELT binary stream: event/loss length mismatch");
  }
  std::vector<elt::EventLoss> records(events.size());
  for (std::size_t i = 0; i < events.size(); ++i) records[i] = {events[i], losses[i]};
  return elt::EventLossTable(std::move(records));
}

void write_yet_binary(std::ostream& out, const yet::YearEventTable& table) {
  write_pod(out, kYetMagic);
  write_pod(out, kVersion);
  std::uint64_t hash = 0;
  const std::vector<yet::EventId> events(table.events().begin(), table.events().end());
  const std::vector<float> times(table.times().begin(), table.times().end());
  const std::vector<std::uint64_t> offsets(table.offsets().begin(), table.offsets().end());
  write_vector(out, events, hash);
  write_vector(out, times, hash);
  write_vector(out, offsets, hash);
  write_pod(out, hash);
}

void write_shard_binary(std::ostream& out, std::span<const double> values) {
  if (fault::should_inject(fault::sites::kIoWrite)) {
    throw core::StatusError(core::StatusCode::kIoError,
                            "injected fault: io.write (shard binary write)");
  }
  write_pod(out, kShardMagic);
  write_pod(out, kVersion);
  const auto count = static_cast<std::uint64_t>(values.size());
  write_pod(out, count);
  out.write(reinterpret_cast<const char*>(values.data()),
            static_cast<std::streamsize>(values.size() * sizeof(double)));
  write_pod(out, checksum64(values.data(), values.size() * sizeof(double)));
}

void read_shard_binary(std::istream& in, std::span<double> values) {
  if (fault::should_inject(fault::sites::kIoRead)) {
    throw core::StatusError(core::StatusCode::kIoError,
                            "injected fault: io.read (shard binary read)");
  }
  check_header(in, kShardMagic, kVersion);
  const auto count = read_pod<std::uint64_t>(in);
  if (count != values.size()) {
    throw_corrupt("shard binary stream: size mismatch (file has " + std::to_string(count) +
                  " values, expected " + std::to_string(values.size()) + ")");
  }
  in.read(reinterpret_cast<char*>(values.data()),
          static_cast<std::streamsize>(values.size() * sizeof(double)));
  if (!in) throw_corrupt("truncated binary stream");
  if (!values.empty() && fault::should_inject(fault::sites::kShardCorruptRead)) {
    // Flip one payload bit before the checksum check — exercises the
    // corruption-detection path exactly as a bad disk would.
    values[0] = values[0] == 0.0 ? 1.0 : -values[0];
  }
  check_footer(in, checksum64(values.data(), values.size() * sizeof(double)));
}

yet::YearEventTable read_yet_binary(std::istream& in) {
  const std::uint32_t version = check_header(in, kYetMagic, kVersionFnv);
  std::uint64_t hash = 0;
  auto events = read_vector<yet::EventId>(in, version, hash);
  auto times = read_vector<float>(in, version, hash);
  auto offsets = read_vector<std::uint64_t>(in, version, hash);
  check_footer(in, hash);
  return yet::YearEventTable(std::move(events), std::move(times), std::move(offsets));
}

}  // namespace are::io
