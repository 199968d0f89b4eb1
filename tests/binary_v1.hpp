#pragma once

// Builds version-1 binary streams — per-vector fnv1a checksums XOR-ed
// together, the format the writers emitted before version 2 — so tests can
// check that the YET and ELT readers still accept them.

#include <cstdint>
#include <span>
#include <string>

#include "elt/event_loss_table.hpp"
#include "io/binary.hpp"
#include "yet/year_event_table.hpp"

namespace are::binary_v1 {

template <typename T>
void put(std::string& out, const T& value) {
  out.append(reinterpret_cast<const char*>(&value), sizeof value);
}

template <typename T>
void put_vector(std::string& out, std::span<const T> values, std::uint64_t& hash) {
  put(out, static_cast<std::uint64_t>(values.size()));
  out.append(reinterpret_cast<const char*>(values.data()), values.size_bytes());
  hash ^= io::fnv1a(values.data(), values.size_bytes());
}

inline std::string elt_bytes(const elt::EventLossTable& table) {
  std::vector<elt::EventId> events;
  std::vector<double> losses;
  for (const elt::EventLoss& record : table.records()) {
    events.push_back(record.event);
    losses.push_back(record.loss);
  }
  std::string out;
  put(out, std::uint32_t{0x454C5431});  // "ELT1"
  put(out, std::uint32_t{1});
  std::uint64_t hash = 0;
  put_vector<elt::EventId>(out, events, hash);
  put_vector<double>(out, losses, hash);
  put(out, hash);
  return out;
}

inline std::string yet_bytes(const yet::YearEventTable& table) {
  std::string out;
  put(out, std::uint32_t{0x59455431});  // "YET1"
  put(out, std::uint32_t{1});
  std::uint64_t hash = 0;
  put_vector(out, table.events(), hash);
  put_vector(out, table.times(), hash);
  put_vector(out, table.offsets(), hash);
  put(out, hash);
  return out;
}

}  // namespace are::binary_v1
