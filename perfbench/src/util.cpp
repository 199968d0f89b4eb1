#include "util.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <thread>

namespace perfbench {

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const auto hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

double flip_low_bit(double value) {
  std::uint64_t bits;
  std::memcpy(&bits, &value, sizeof bits);
  bits ^= 1;
  std::memcpy(&value, &bits, sizeof bits);
  return value;
}

Flags::Flags(int argc, char** argv, int first) {
  for (int i = first; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) throw std::runtime_error("unexpected argument '" + key + "'");
    key = key.substr(2);
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[key] = argv[++i];
    } else {
      values_[key] = "1";
    }
  }
}

std::string Flags::get(const std::string& key, const std::string& fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

std::string Flags::require(const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) throw std::runtime_error("missing --" + key);
  return it->second;
}

double Flags::get_double(const std::string& key, double fallback) const {
  return has(key) ? std::stod(get(key)) : fallback;
}

std::uint64_t Flags::get_u64(const std::string& key, std::uint64_t fallback) const {
  return has(key) ? std::stoull(get(key)) : fallback;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

void Result::metric(const std::string& name, double value, const std::string& unit) {
  metrics_.push_back({name, {value, unit}});
}

void Result::note(const std::string& key, const std::string& value) {
  notes_.emplace_back(key, value);
}

void Result::gate(const std::string& name, bool passed, const std::string& detail) {
  gates_.push_back({name, passed, detail});
}

bool Result::gates_passed() const {
  return std::all_of(gates_.begin(), gates_.end(), [](const Gate& g) { return g.passed; });
}

void Result::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  char buf[64];
  out << "{\"attempted\":" << attempted_ << ",\"failed\":" << failed_ << ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const double v = metrics_[i].second.first;
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    out << (i ? "," : "") << "\"" << metrics_[i].first << "\":{\"value\":" << buf
        << ",\"unit\":\"" << metrics_[i].second.second << "\"}";
  }
  out << "},\"gates\":[";
  for (std::size_t i = 0; i < gates_.size(); ++i) {
    out << (i ? "," : "") << "{\"name\":\"" << json_escape(gates_[i].name)
        << "\",\"passed\":" << (gates_[i].passed ? "true" : "false") << ",\"detail\":\""
        << json_escape(gates_[i].detail) << "\"}";
  }
  out << "],\"notes\":{";
  for (std::size_t i = 0; i < notes_.size(); ++i) {
    out << (i ? "," : "") << "\"" << json_escape(notes_[i].first) << "\":\""
        << json_escape(notes_[i].second) << "\"";
  }
  out << "}}\n";
}

namespace {

std::mutex g_tracer_mutex;
thread_local std::vector<std::uint64_t> t_span_stack;

}  // namespace

Tracer& Tracer::global() {
  static Tracer tracer;
  return tracer;
}

std::uint64_t Tracer::begin(const char* name) {
  const auto now = Clock::now();
  std::lock_guard<std::mutex> guard(g_tracer_mutex);
  Record record;
  record.name = name;
  record.id = records_.size() + 1;
  record.parent = t_span_stack.empty() ? 0 : t_span_stack.back();
  record.tid = std::hash<std::thread::id>{}(std::this_thread::get_id()) & 0xffffff;
  record.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(now - epoch_).count();
  record.end_ns = record.start_ns;
  records_.push_back(std::move(record));
  t_span_stack.push_back(records_.back().id);
  return records_.back().id;
}

void Tracer::end(std::uint64_t id) {
  const auto now = Clock::now();
  std::lock_guard<std::mutex> guard(g_tracer_mutex);
  records_[id - 1].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(now - epoch_).count();
  if (!t_span_stack.empty() && t_span_stack.back() == id) t_span_stack.pop_back();
}

void Tracer::write_chrome_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  std::lock_guard<std::mutex> guard(g_tracer_mutex);
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%llu,\"ts\":%.3f,"
                  "\"dur\":%.3f,\"args\":{\"id\":%llu,\"parent\":%llu}}",
                  i ? "," : "", r.name.c_str(), static_cast<unsigned long long>(r.tid),
                  static_cast<double>(r.start_ns) / 1e3,
                  static_cast<double>(r.end_ns - r.start_ns) / 1e3,
                  static_cast<unsigned long long>(r.id),
                  static_cast<unsigned long long>(r.parent));
    out << buf << "\n";
  }
  out << "]}\n";
}

}  // namespace perfbench
