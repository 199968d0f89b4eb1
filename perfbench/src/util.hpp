#pragma once

// Small helpers shared by the benchmark modes: clocks, order statistics,
// a flat JSON result writer, and the harness-side span recorder.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// User + system CPU seconds consumed by this process so far.
double process_cpu_seconds();

/// Peak resident set size of this process in MB (getrusage ru_maxrss).
double peak_rss_mb();

/// Linear-interpolated quantile (q in [0,1]) of an unsorted sample; 0 for
/// an empty one. Same convention as numpy's default.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

/// `value` with the lowest bit of its mantissa flipped: the one-ulp
/// corruption the `--corrupt` option plants for the gates to catch.
double flip_low_bit(double value);

/// Command-line flags of the form `--key value` (a trailing `--key` with
/// no value reads as "1").
class Flags {
 public:
  Flags(int argc, char** argv, int first);
  bool has(const std::string& key) const { return values_.count(key) != 0; }
  std::string get(const std::string& key, const std::string& fallback = "") const;
  std::string require(const std::string& key) const;
  double get_double(const std::string& key, double fallback) const;
  std::uint64_t get_u64(const std::string& key, std::uint64_t fallback) const;

 private:
  std::map<std::string, std::string> values_;
};

/// The result file a mode writes for the orchestrator: named metrics with
/// units, gate outcomes, counts and free-form notes, as one JSON object.
class Result {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  void note(const std::string& key, const std::string& value);
  void gate(const std::string& name, bool passed, const std::string& detail = "");
  void count(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  bool gates_passed() const;
  void write(const std::string& path) const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  std::vector<std::pair<std::string, std::string>> notes_;
  struct Gate {
    std::string name;
    bool passed;
    std::string detail;
  };
  std::vector<Gate> gates_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

std::string json_escape(const std::string& s);

/// Harness spans: name, start, end and parent, kept in memory and written
/// once as Chrome-trace JSON. Recording is off unless set_enabled(true);
/// a disabled Span costs one relaxed load. Spans nest per thread.
class Tracer {
 public:
  static Tracer& global();
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  std::uint64_t begin(const char* name);
  void end(std::uint64_t id);
  void write_chrome_json(const std::string& path) const;

 private:
  struct Record {
    std::string name;
    std::uint64_t id;
    std::uint64_t parent;
    std::uint64_t tid;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  std::atomic<bool> enabled_{false};
  std::vector<Record> records_;
  Clock::time_point epoch_ = Clock::now();
};

class Span {
 public:
  explicit Span(const char* name)
      : id_(Tracer::global().enabled() ? Tracer::global().begin(name) : 0) {}
  ~Span() {
    if (id_ != 0) Tracer::global().end(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::uint64_t id_;
};

}  // namespace perfbench
