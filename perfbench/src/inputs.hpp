#pragma once

// Workload shapes, input generation from a seed, and the measured set-up
// (read + verify + build) every mode starts with.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/layer.hpp"
#include "elt/lookup.hpp"
#include "util.hpp"
#include "yet/year_event_table.hpp"

namespace perfbench {

struct Shape {
  std::string workload;
  std::size_t catalog_size = 0;
  std::size_t num_elts = 0;  // distinct ELT files
  std::size_t entries = 0;   // non-zero losses per ELT
  std::uint64_t trials = 0;
  double events_per_trial = 0;
  bool poisson_counts = false;  // fixed count per trial otherwise
  std::size_t layers = 0;
  std::size_t elts_per_layer = 0;
  are::elt::LookupKind lookup = are::elt::LookupKind::kDirectAccess;
  std::uint64_t shard_trials = 0;  // out_of_core only
};

/// The shape of a workload; `smoke` shrinks it to run in about a second.
Shape shape_for(const std::string& workload, bool smoke);

/// Writes the workload's YET and ELT files into `dir`, deterministically
/// from `seed`.
void generate_inputs(const Shape& shape, std::uint64_t seed, const std::string& dir);

struct Inputs {
  are::yet::YearEventTable yet;
  are::core::Portfolio portfolio;
  /// One lookup per ELT file; layers share them by pointer.
  std::vector<std::shared_ptr<const are::elt::ILossLookup>> lookups;
  double read_yet_s = 0;
  double read_elt_s = 0;
  double build_s = 0;
  double total_s = 0;

  std::uint64_t lookups_per_run() const;
  double footprint_mb() const;
};

/// Reads and verifies the inputs through io::read_*, then builds the
/// lookup tables with elt::make_lookup and the portfolio.
Inputs load_inputs(const Shape& shape, const std::string& dir);

/// Set-up measured `times` times: records the medians as setup_s,
/// io.read_yet_s, io.read_elt_s and elt.build_s, and returns the last
/// load (each earlier one is freed before the next starts).
Inputs load_inputs_timed(const Shape& shape, const std::string& dir, std::uint64_t times,
                         Result& result);

}  // namespace perfbench
