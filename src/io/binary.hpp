#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>

#include "elt/event_loss_table.hpp"
#include "yet/year_event_table.hpp"

namespace are::io {

/// Compact binary formats for the bulk inputs and the YLT spill shards.
/// Each record starts with a magic tag and a format version and ends with
/// a 64-bit checksum of the payload, so corrupted or truncated files are
/// rejected rather than silently mispriced. All integers little-endian,
/// losses as IEEE doubles.
///
/// Writers emit version 2: the checksum is checksum64, and a record of
/// several vectors chains them, each vector's hash seeded with the hash so
/// far. The YET and ELT readers also accept version 1, whose checksum is
/// the XOR of each vector's fnv1a. Spill shards never outlive the process
/// that wrote them, so read_shard_binary accepts version 2 only. Any other
/// version is rejected as core::StatusCode::kDataCorruption.

void write_elt_binary(std::ostream& out, const elt::EventLossTable& table);
elt::EventLossTable read_elt_binary(std::istream& in);

void write_yet_binary(std::ostream& out, const yet::YearEventTable& table);
yet::YearEventTable read_yet_binary(std::istream& in);

/// One spilled YLT shard: a flat run of doubles (the shard's layer-major
/// loss buffer), checksummed like the other formats so a torn spill file is
/// an error instead of silently zeroed trials.
void write_shard_binary(std::ostream& out, std::span<const double> values);

/// Restores a shard written by write_shard_binary into `values`; throws
/// std::runtime_error on magic/version/size/checksum mismatch.
void read_shard_binary(std::istream& in, std::span<double> values);

/// The version-2 checksum: XXH64 of a byte range under `seed`. Four
/// independent 64-bit lanes consume 32-byte stripes, one multiply-rotate
/// round per 8-byte word, so it runs word-wise rather than byte-serially.
std::uint64_t checksum64(const void* data, std::size_t size, std::uint64_t seed = 0) noexcept;

/// FNV-1a 64-bit over a byte range: the version-1 checksum, kept for
/// reading version-1 files (exposed for tests).
std::uint64_t fnv1a(const void* data, std::size_t size) noexcept;

}  // namespace are::io
