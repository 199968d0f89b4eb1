#include "io/binary.hpp"

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
constexpr std::uint32_t kVersion = 1;

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
  hash ^= fnv1a(values.data(), values.size() * sizeof(T));
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
std::vector<T> read_vector(std::istream& in, std::uint64_t& hash) {
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
  hash ^= fnv1a(values.data(), values.size() * sizeof(T));
  return values;
}

void check_header(std::istream& in, std::uint32_t magic) {
  if (read_pod<std::uint32_t>(in) != magic) throw_corrupt("bad magic in binary stream");
  if (read_pod<std::uint32_t>(in) != kVersion) {
    throw_corrupt("unsupported binary format version");
  }
}

void check_footer(std::istream& in, std::uint64_t hash) {
  if (read_pod<std::uint64_t>(in) != hash) {
    throw_corrupt("checksum mismatch: corrupt binary stream");
  }
}

}  // namespace

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
  check_header(in, kEltMagic);
  std::uint64_t hash = 0;
  const auto events = read_vector<elt::EventId>(in, hash);
  const auto losses = read_vector<double>(in, hash);
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
  write_pod(out, fnv1a(values.data(), values.size() * sizeof(double)));
}

void read_shard_binary(std::istream& in, std::span<double> values) {
  if (fault::should_inject(fault::sites::kIoRead)) {
    throw core::StatusError(core::StatusCode::kIoError,
                            "injected fault: io.read (shard binary read)");
  }
  check_header(in, kShardMagic);
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
  check_footer(in, fnv1a(values.data(), values.size() * sizeof(double)));
}

yet::YearEventTable read_yet_binary(std::istream& in) {
  check_header(in, kYetMagic);
  std::uint64_t hash = 0;
  auto events = read_vector<yet::EventId>(in, hash);
  auto times = read_vector<float>(in, hash);
  auto offsets = read_vector<std::uint64_t>(in, hash);
  check_footer(in, hash);
  return yet::YearEventTable(std::move(events), std::move(times), std::move(offsets));
}

}  // namespace are::io
