#include "io/csv.hpp"

#include <charconv>
#include <istream>
#include <ostream>
#include <stdexcept>

namespace are::io {

void write_elt_csv(std::ostream& out, const elt::EventLossTable& table) {
  out << "event_id,loss\n";
  for (const elt::EventLoss& record : table.records()) {
    out << record.event << ',' << record.loss << '\n';
  }
}

elt::EventLossTable read_elt_csv(std::istream& in) {
  std::string line;
  if (!std::getline(in, line)) throw std::runtime_error("empty ELT CSV");
  if (line.rfind("event_id,", 0) != 0) throw std::runtime_error("missing ELT CSV header");

  std::vector<elt::EventLoss> records;
  std::size_t line_number = 1;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) continue;
    const std::vector<std::string> fields = split_csv_line(line);
    if (fields.size() != 2) {
      throw std::runtime_error("ELT CSV line " + std::to_string(line_number) +
                               ": expected 2 fields");
    }
    elt::EventLoss record;
    auto [ptr, ec] = std::from_chars(fields[0].data(), fields[0].data() + fields[0].size(),
                                     record.event);
    if (ec != std::errc{} || ptr != fields[0].data() + fields[0].size()) {
      throw std::runtime_error("ELT CSV line " + std::to_string(line_number) + ": bad event id");
    }
    try {
      record.loss = std::stod(fields[1]);
    } catch (const std::exception&) {
      throw std::runtime_error("ELT CSV line " + std::to_string(line_number) + ": bad loss");
    }
    records.push_back(record);
  }
  return elt::EventLossTable(std::move(records));
}

void write_ylt_csv(std::ostream& out, const core::YearLossTable& ylt) {
  out << "trial";
  for (std::uint32_t id : ylt.layer_ids()) out << ",layer_" << id;
  out << '\n';
  for (std::size_t trial = 0; trial < ylt.num_trials(); ++trial) {
    out << trial;
    for (std::size_t layer = 0; layer < ylt.num_layers(); ++layer) {
      out << ',' << ylt.at(layer, trial);
    }
    out << '\n';
  }
}

void write_ylt_csv(std::ostream& out, shard::ShardedYearLossTable& ylt) {
  out << "trial";
  for (std::uint32_t id : ylt.layer_ids()) out << ",layer_" << id;
  out << '\n';
  ylt.for_each_shard([&](const shard::ShardedYearLossTable::ShardView& view) {
    for (std::size_t i = 0; i < view.trials(); ++i) {
      out << view.trial_begin() + i;
      for (std::size_t layer = 0; layer < ylt.num_layers(); ++layer) {
        out << ',' << view.layer_losses(layer)[i];
      }
      out << '\n';
    }
  });
}

void write_ep_csv(std::ostream& out, const std::vector<metrics::EpPoint>& points) {
  out << "return_period,probability,loss\n";
  for (const metrics::EpPoint& point : points) {
    out << point.return_period << ',' << point.probability << ',' << point.loss << '\n';
  }
}

std::vector<std::string> split_csv_line(const std::string& line) {
  std::vector<std::string> fields;
  std::size_t start = 0;
  for (;;) {
    const std::size_t comma = line.find(',', start);
    if (comma == std::string::npos) {
      fields.push_back(line.substr(start));
      return fields;
    }
    fields.push_back(line.substr(start, comma - start));
    start = comma + 1;
  }
}

}  // namespace are::io
