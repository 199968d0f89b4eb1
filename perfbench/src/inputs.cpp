#include "inputs.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <optional>
#include <stdexcept>

#include "elt/synthetic.hpp"
#include "io/binary.hpp"
#include "util.hpp"
#include "yet/generator.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using namespace are;

Shape shape_for(const std::string& workload, bool smoke) {
  Shape s;
  s.workload = workload;
  if (workload == "batch_pml") {
    // The paper's shape scaled down: one layer over 15 direct-access ELTs
    // on a 2M-event catalog (~230 MB of tables, every lookup a cache miss)
    // and 1000 events per trial.
    s.catalog_size = smoke ? 200'000 : 2'000'000;
    s.num_elts = smoke ? 3 : 15;
    s.entries = smoke ? 2'000 : 20'000;
    s.trials = smoke ? 400 : 20'000;
    s.events_per_trial = smoke ? 100 : 1000;
    s.layers = 1;
    s.elts_per_layer = s.num_elts;
  } else if (workload == "quote_mix") {
    // A cache-resident book: 2 layers x 4 robin-hood ELTs (~5 MB).
    s.catalog_size = smoke ? 200'000 : 2'000'000;
    s.num_elts = 8;
    s.entries = smoke ? 2'000 : 20'000;
    s.trials = smoke ? 200 : 2'500;
    s.events_per_trial = smoke ? 100 : 1000;
    s.layers = 2;
    s.elts_per_layer = 4;
    s.lookup = elt::LookupKind::kRobinHood;
  } else if (workload == "out_of_core") {
    // Many trials x many layers, few events per trial, small in-cache
    // direct tables: the output table, not the kernel, is the cost.
    s.catalog_size = 50'000;
    s.num_elts = 8;
    s.entries = 5'000;
    s.trials = smoke ? 4'000 : 100'000;
    s.events_per_trial = 10;
    s.poisson_counts = true;
    s.layers = smoke ? 4 : 16;
    s.elts_per_layer = 2;
    s.shard_trials = smoke ? 512 : 8192;
  } else {
    throw std::runtime_error("unknown workload '" + workload + "'");
  }
  return s;
}

namespace {

/// Index of the ELT file covering slot `slot` of layer `layer`.
std::size_t elt_index(const Shape& shape, std::size_t layer, std::size_t slot) {
  if (shape.workload == "out_of_core") return (layer + slot) % shape.num_elts;
  return layer * shape.elts_per_layer + slot;
}

std::string yet_path(const std::string& dir) { return (fs::path(dir) / "yet.bin").string(); }

std::string elt_path(const std::string& dir, std::size_t i) {
  return (fs::path(dir) / ("elt_" + std::to_string(i) + ".bin")).string();
}

financial::LayerTerms layer_terms(const Shape& shape, std::size_t layer) {
  if (shape.workload == "batch_pml") {
    // Occurrence XL + aggregate XL on the one layer.
    return {250e3, 2.5e6, 1e6, 25e6};
  }
  if (shape.workload == "quote_mix") {
    return layer == 0 ? financial::LayerTerms{200e3, 2e6, 500e3, 10e6}
                      : financial::LayerTerms{1e6, 5e6, 0.0, financial::kUnlimited};
  }
  const auto l = static_cast<double>(layer % 12);
  return {100e3 * (1 + l / 4), 1e6 * (1 + l / 3), 200e3 * l, financial::kUnlimited};
}

}  // namespace

void generate_inputs(const Shape& shape, std::uint64_t seed, const std::string& dir) {
  fs::create_directories(dir);
  yet::YetConfig yet_config;
  yet_config.num_trials = shape.trials;
  yet_config.events_per_trial = shape.events_per_trial;
  yet_config.count_model =
      shape.poisson_counts ? yet::CountModel::kPoisson : yet::CountModel::kFixed;
  yet_config.seed = seed * 7919 + 17;
  {
    const auto table = yet::generate_uniform_yet(yet_config, shape.catalog_size);
    std::ofstream out(yet_path(dir), std::ios::binary);
    io::write_yet_binary(out, table);
    if (!out) throw std::runtime_error("cannot write " + yet_path(dir));
  }
  for (std::size_t i = 0; i < shape.num_elts; ++i) {
    elt::SyntheticEltConfig config;
    config.catalog_size = shape.catalog_size;
    config.entries = shape.entries;
    config.seed = seed;
    config.elt_id = i;
    std::ofstream out(elt_path(dir, i), std::ios::binary);
    io::write_elt_binary(out, elt::make_synthetic_elt(config));
    if (!out) throw std::runtime_error("cannot write " + elt_path(dir, i));
  }
}

std::uint64_t Inputs::lookups_per_run() const {
  std::uint64_t elts = 0;
  for (const auto& layer : portfolio.layers) elts += layer.elts.size();
  return elts * yet.total_events();
}

double Inputs::footprint_mb() const {
  std::size_t bytes = 0;
  for (const auto& lookup : lookups) bytes += lookup->memory_bytes();
  return static_cast<double>(bytes) / 1e6;
}

Inputs load_inputs(const Shape& shape, const std::string& dir) {
  Span setup_span("setup");
  Inputs in;
  const auto t0 = Clock::now();
  {
    Span span("io.read_yet");
    std::ifstream file(yet_path(dir), std::ios::binary);
    if (!file) throw std::runtime_error("cannot open " + yet_path(dir));
    in.yet = io::read_yet_binary(file);
  }
  const auto t1 = Clock::now();
  std::vector<elt::EventLossTable> tables;
  {
    Span span("io.read_elt");
    for (std::size_t i = 0; i < shape.num_elts; ++i) {
      std::ifstream file(elt_path(dir, i), std::ios::binary);
      if (!file) throw std::runtime_error("cannot open " + elt_path(dir, i));
      tables.push_back(io::read_elt_binary(file));
    }
  }
  const auto t2 = Clock::now();
  {
    Span span("elt.build");
    for (const auto& table : tables) {
      in.lookups.push_back(elt::make_lookup(shape.lookup, table, shape.catalog_size));
    }
    for (std::size_t l = 0; l < shape.layers; ++l) {
      core::Layer layer;
      layer.id = static_cast<std::uint32_t>(l + 1);
      layer.terms = layer_terms(shape, l);
      for (std::size_t slot = 0; slot < shape.elts_per_layer; ++slot) {
        core::LayerElt layer_elt;
        layer_elt.lookup = in.lookups[elt_index(shape, l, slot)];
        layer.elts.push_back(std::move(layer_elt));
      }
      in.portfolio.layers.push_back(std::move(layer));
    }
    in.portfolio.validate();
  }
  const auto t3 = Clock::now();
  in.read_yet_s = seconds_between(t0, t1);
  in.read_elt_s = seconds_between(t1, t2);
  in.build_s = seconds_between(t2, t3);
  in.total_s = seconds_between(t0, t3);
  return in;
}

Inputs load_inputs_timed(const Shape& shape, const std::string& dir, std::uint64_t times,
                         Result& result) {
  std::optional<Inputs> in;
  std::vector<double> setup, read_yet, read_elt, build;
  for (std::uint64_t k = 0; k < std::max<std::uint64_t>(1, times); ++k) {
    in.reset();
    in.emplace(load_inputs(shape, dir));
    setup.push_back(in->total_s);
    read_yet.push_back(in->read_yet_s);
    read_elt.push_back(in->read_elt_s);
    build.push_back(in->build_s);
  }
  result.metric("setup_s", median(setup), "s");
  result.metric("io.read_yet_s", median(read_yet), "s");
  result.metric("io.read_elt_s", median(read_elt), "s");
  result.metric("elt.build_s", median(build), "s");
  return std::move(*in);
}

}  // namespace perfbench
