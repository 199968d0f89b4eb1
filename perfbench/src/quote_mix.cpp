// quote_mix: a resident AnalysisService behind service::Server on its
// AF_UNIX socket (mode `serve`), driven by one open-loop generator process
// (mode `loadgen`) with a fixed cold / delta / cached mix.

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <iostream>
#include <map>
#include <mutex>
#include <random>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "modes.hpp"
#include "obs/metrics_server.hpp"
#include "obs/telemetry.hpp"
#include "probe.hpp"
#include "service/analysis_service.hpp"
#include "service/server.hpp"

namespace perfbench {

using namespace are;

// ---- serve ------------------------------------------------------------------

int run_serve(const Flags& flags) {
  const Shape shape = shape_for("quote_mix", flags.has("smoke"));
  const bool trace = flags.get_u64("trace", 0) != 0;
  const std::string socket_path = flags.require("socket");
  Result result;
  Tracer::global().set_enabled(trace);

  Inputs in = load_inputs(shape, flags.require("dir"));
  const std::size_t threads = analysis_threads();
  const std::string simd = simd_note(in);
  if (trace) probe_layers(in, result);  // before the service exists: it resets the registry

  // Counters stay on for the life of the server, as in `are_cli serve`:
  // the broker's admission state lives in the registry.
  obs::TelemetryRegistry::global().reset();
  obs::set_enabled(true);
  const std::uint64_t cold_cost = in.portfolio.layers.size() * in.yet.total_events();
  const std::uint64_t cold_lookups = in.lookups_per_run();
  service::ServiceConfig config;
  config.session.num_threads = threads;
  config.cache_entries = 256;
  // Room for about two cold quotes at once (plus the near-free deltas), so
  // cold bursts queue in the broker.
  config.broker.max_inflight_cost = 2 * cold_cost + 1024;
  config.broker.max_queued = 64;
  config.metrics_port = 0;
  service::AnalysisService analysis(std::move(in.yet), config);
  analysis.register_portfolio("book", std::move(in.portfolio));
  service::Server server(analysis, {socket_path, false});

  std::string serve_error;  // read only after the join
  std::atomic<bool> serve_failed{false};
  std::thread serve_thread([&] {
    try {
      server.serve();
    } catch (const std::exception& error) {
      serve_error = error.what();
      serve_failed.store(true);
    }
  });
  std::string priming;
  for (int attempt = 0; attempt < 3000 && priming.empty() && !serve_failed.load(); ++attempt) {
    try {
      Span span("service.priming_quote");
      priming = service::Server::round_trip(socket_path, "QUOTE portfolio=book");
    } catch (const std::exception&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  const bool primed = priming.find("\"status\":\"ok\"") != std::string::npos &&
                      priming.find("\"source\":\"cold\"") != std::string::npos;
  std::printf("{\"ready\":%s,\"metrics_port\":%d,\"cold_lookups\":%llu}\n",
              primed ? "true" : "false",
              analysis.metrics_server() ? analysis.metrics_server()->port() : -1,
              static_cast<unsigned long long>(cold_lookups));
  std::fflush(stdout);
  if (!primed) {
    server.request_stop();
    serve_thread.join();
    std::fprintf(stderr, "serve: priming quote failed: %s %s\n", priming.c_str(),
                 serve_error.c_str());
    return 1;
  }
  serve_thread.join();

  const obs::Snapshot snap = obs::TelemetryRegistry::global().snapshot();
  result.metric("service.rejected", static_cast<double>(snap.counter_value("service.rejected")),
                "count");
  result.metric("service.failed", static_cast<double>(snap.counter_value("service.failed")),
                "count");
  result.metric("io.read_yet_s", in.read_yet_s, "s");
  result.metric("io.read_elt_s", in.read_elt_s, "s");
  result.metric("elt.build_s", in.build_s, "s");
  result.note("simd", simd);
  result.note("threads", std::to_string(threads));
  result.gate("serve_clean_exit", serve_error.empty(), serve_error);
  result.write(flags.require("out"));
  if (trace) Tracer::global().write_chrome_json(flags.require("trace-out"));
  return serve_error.empty() ? 0 : 1;
}

// ---- loadgen ----------------------------------------------------------------

namespace {

/// One persistent protocol connection.
class Connection {
 public:
  explicit Connection(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    if (fd_ < 0 || ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
      if (fd_ >= 0) ::close(fd_);
      throw std::runtime_error("connect " + path + ": " + std::strerror(errno));
    }
  }
  ~Connection() { ::close(fd_); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  std::string round_trip(const std::string& line) {
    const std::string out = line + "\n";
    for (std::size_t sent = 0; sent < out.size();) {
      const ssize_t n = ::write(fd_, out.data() + sent, out.size() - sent);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) throw std::runtime_error("write: connection lost");
      sent += static_cast<std::size_t>(n);
    }
    std::size_t newline;
    while ((newline = pending_.find('\n')) == std::string::npos) {
      char buf[8192];
      const ssize_t n = ::read(fd_, buf, sizeof buf);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) throw std::runtime_error("read: connection lost");
      pending_.append(buf, static_cast<std::size_t>(n));
    }
    std::string response = pending_.substr(0, newline);
    pending_.erase(0, newline + 1);
    return response;
  }

 private:
  int fd_ = -1;
  std::string pending_;
};

/// Text of the JSON value after `"key":` (string without quotes, number,
/// or bracketed array), or "" when absent.
std::string field(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = json.find(needle);
  if (at == std::string::npos) return "";
  std::size_t begin = at + needle.size();
  if (json[begin] == '"') {
    const std::size_t end = json.find('"', begin + 1);
    return json.substr(begin + 1, end - begin - 1);
  }
  if (json[begin] == '[') {
    int depth = 0;
    for (std::size_t i = begin; i < json.size(); ++i) {
      if (json[i] == '[') ++depth;
      if (json[i] == ']' && --depth == 0) return json.substr(begin, i - begin + 1);
    }
    return "";
  }
  std::size_t end = begin;
  while (end < json.size() && json[end] != ',' && json[end] != '}') ++end;
  return json.substr(begin, end - begin);
}

double number(const std::string& json, const std::string& key) {
  const std::string text = field(json, key);
  return text.empty() ? 0.0 : std::strtod(text.c_str(), nullptr);
}

/// Sum of the response telemetry's `elt.*.lookups` counters.
std::uint64_t elt_lookups(const std::string& json) {
  std::uint64_t total = 0;
  const std::size_t counters = json.find("\"telemetry\":{\"counters\":{");
  if (counters == std::string::npos) return 0;
  const std::size_t end = json.find('}', counters + 26);
  for (std::size_t at = json.find("\"elt.", counters); at != std::string::npos && at < end;
       at = json.find("\"elt.", at + 1)) {
    const std::size_t close = json.find('"', at + 1);
    const std::string name = json.substr(at + 1, close - at - 1);
    if (name.size() > 8 && name.compare(name.size() - 8, 8, ".lookups") == 0) {
      total += std::strtoull(json.c_str() + close + 2, nullptr, 10);
    }
  }
  return total;
}

/// On-CPU nanoseconds of every thread of process `pid`, by thread id
/// (/proc/<pid>/task/<tid>/schedstat: precise, unlike the tick-granular
/// /proc/<pid>/stat).
std::map<long, double> thread_cpu_ns(long pid) {
  std::map<long, double> ns;
  const std::string tasks = "/proc/" + std::to_string(pid) + "/task";
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(tasks, ec)) {
    std::ifstream stat(entry.path() / "schedstat");
    double on_cpu = 0;
    if (stat >> on_cpu) ns[std::stol(entry.path().filename().string())] = on_cpu;
  }
  return ns;
}

/// CPU seconds the server's threads spent between two thread_cpu_ns
/// readings; threads that started or ended in between are not counted.
double cpu_between(const std::map<long, double>& before, const std::map<long, double>& after) {
  double ns = 0;
  for (const auto& [tid, end_ns] : after) {
    const auto it = before.find(tid);
    if (it != before.end()) ns += end_ns - it->second;
  }
  return ns * 1e-9;
}

/// GET /metrics on localhost; returns the wall seconds, or a negative
/// value when the scrape failed.
double scrape_metrics(int port) {
  const auto t0 = Clock::now();
  try {
    const std::string body = obs::http_get("127.0.0.1", port, "/metrics");
    if (body.find("are_service_requests") == std::string::npos) return -1.0;
  } catch (const std::exception&) {
    return -1.0;
  }
  return seconds_between(t0, Clock::now());
}

enum Kind { kCold = 0, kDelta = 1, kCached = 2 };
const char* const kKindName[] = {"cold", "delta", "cached"};
// Latency limit per class, from when the quote was due: slo_frac.
constexpr double kSloMs[] = {1500.0, 250.0, 100.0};

struct Sample {
  Kind kind = kCold;
  double due = 0;  // seconds into the open-loop schedule
  Clock::time_point due_at, sent_at, done_at;
  std::string line;
  std::string response;
};

std::string traced_round_trip(Connection& conn, const std::string& line, const char* span_name) {
  Span span(span_name);
  return conn.round_trip(line);
}

}  // namespace

int run_loadgen(const Flags& flags) {
  const std::string socket_path = flags.require("socket");
  const double window_s = flags.get_double("seconds", 10);
  const double rate = flags.get_double("rate", 10);
  const std::size_t conns = std::min<std::size_t>(analysis_threads(), 4);
  const bool trace = flags.get_u64("trace", 0) != 0;
  const std::uint64_t cold_lookups = flags.get_u64("cold-lookups", 0);
  const int metrics_port = static_cast<int>(flags.get_u64("metrics-port", 0));
  const long server_pid = static_cast<long>(flags.get_u64("server-pid", 0));
  const bool corrupt = flags.get("corrupt") == "quote";
  Result result;
  Tracer::global().set_enabled(trace);

  // The open-loop schedule, all from the seed: rate x window arrivals at
  // uniform random times (a Poisson process given its count), dealt
  // exactly 10% cold, 70% delta and 20% cached in random order, so every
  // run has the same number of samples per class.
  std::mt19937_64 rng(flags.get_u64("seed", 1) * 1000003 + 11);
  const auto n = static_cast<std::size_t>(rate * window_s);
  std::vector<Sample> samples(n);
  std::uniform_real_distribution<double> when(0.0, window_s);
  std::vector<double> dues(n);
  for (double& due : dues) due = when(rng);
  std::sort(dues.begin(), dues.end());
  std::vector<Kind> deck(n, kDelta);
  std::fill(deck.begin(), deck.begin() + static_cast<std::ptrdiff_t>((n + 9) / 10), kCold);
  std::fill(deck.end() - static_cast<std::ptrdiff_t>(n / 5), deck.end(), kCached);
  std::shuffle(deck.begin(), deck.end(), rng);
  for (std::size_t i = 0; i < n; ++i) {
    samples[i].due = dues[i];
    samples[i].kind = deck[i];
  }

  const std::string cold_line = "QUOTE portfolio=book cache=0 delta=0";
  std::uint64_t next_retention = 0;
  const auto delta_line = [&] {
    // A unique occurrence retention: a cache miss that replays ground-up
    // losses (the delta path).
    return "QUOTE portfolio=book layer=1 occ-retention=" +
           std::to_string(150000 + next_retention++);
  };
  for (Sample& s : samples) {
    if (s.kind == kCold) s.line = cold_line;
    if (s.kind == kDelta) s.line = delta_line();
  }

  // Recently completed delta quotes (line + figures), repeated as cache hits.
  std::mutex recent_mutex;
  std::vector<std::pair<std::string, std::string>> recent;
  {
    Connection warm(socket_path);
    for (int i = 0; i < 16; ++i) {
      const std::string line = delta_line();
      recent.emplace_back(line, field(warm.round_trip(line), "quotes"));
    }
  }

  std::atomic<bool> finished{false};
  std::vector<double> scrape_s;
  std::size_t scrape_failures = 0;
  std::thread scraper([&] {
    while (!finished.load()) {
      {
        Span span("obs.scrape");
        const double s = scrape_metrics(metrics_port);
        if (s < 0) {
          ++scrape_failures;
        } else {
          scrape_s.push_back(s);
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(500));
    }
  });

  // The window runs in rounds. After each round's open-loop slice has
  // drained, a serial slice sends one quote at a time on one connection:
  //  - one delta and one cached quote of the round re-quoted cold, whose
  //    figures must match exactly, and two plain cold quotes: these time
  //    an uncontended full analysis and its server CPU;
  //  - fresh delta quotes, timing uncontended repricing.
  // Open-loop latencies depend on how arrivals happen to overlap; the
  // serial ones do not, and spreading them over the run averages out the
  // host's slow spells.
  constexpr std::size_t kRounds = 4;
  std::atomic<std::size_t> backlog_max{0};
  std::string worker_error;
  std::mutex error_mutex;
  std::vector<double> serial_cold_s[2], serial_delta_ms;
  std::uint64_t requoted = 0, requote_failed = 0, serial_failed = 0, serial_n = 0;
  double cpu_s = 0, delta_cpu_s = 0;
  std::size_t begin = 0;
  for (std::size_t round = 0; round < kRounds; ++round) {
    const double offset = window_s * static_cast<double>(round) / kRounds;
    const double round_end = window_s * static_cast<double>(round + 1) / kRounds;
    const std::size_t end =
        round + 1 == kRounds
            ? n
            : static_cast<std::size_t>(std::lower_bound(dues.begin(), dues.end(), round_end) -
                                       dues.begin());
    const auto round_start = Clock::now();
    std::atomic<std::size_t> next{begin};
    std::vector<std::thread> workers;
    for (std::size_t w = 0; w < conns; ++w) {
      workers.emplace_back([&, w] {
        std::mt19937_64 pick(round * 131 + w + 1);
        try {
          Connection conn(socket_path);
          for (std::size_t i = next++; i < end; i = next++) {
            Sample& s = samples[i];
            s.due_at = round_start + std::chrono::duration_cast<Clock::duration>(
                                         std::chrono::duration<double>(s.due - offset));
            std::this_thread::sleep_until(s.due_at);
            const double now = offset + seconds_between(round_start, Clock::now());
            const auto due_count = std::min(
                end, static_cast<std::size_t>(std::upper_bound(dues.begin(), dues.end(), now) -
                                              dues.begin()));
            const std::size_t backlog = due_count > i ? due_count - i : 0;
            std::size_t seen = backlog_max.load();
            while (backlog > seen && !backlog_max.compare_exchange_weak(seen, backlog)) {
            }
            std::string original;
            if (s.kind == kCached) {
              std::lock_guard<std::mutex> guard(recent_mutex);
              const std::size_t k =
                  recent.size() - 1 - pick() % std::min<std::size_t>(16, recent.size());
              s.line = recent[k].first;
              original = recent[k].second;
            }
            s.sent_at = Clock::now();
            s.response = traced_round_trip(conn, s.line,
                                       s.kind == kCold    ? "service.quote.cold"
                                       : s.kind == kDelta ? "service.quote.delta"
                                                          : "service.quote.cached");
            s.done_at = Clock::now();
            if (s.kind == kDelta && field(s.response, "status") == "ok") {
              std::lock_guard<std::mutex> guard(recent_mutex);
              recent.emplace_back(s.line, field(s.response, "quotes"));
            }
            if (s.kind == kCached && field(s.response, "quotes") != original) {
              s.response += " [cached figures differ from the delta quote they repeat]";
            }
          }
        } catch (const std::exception& error) {
          std::lock_guard<std::mutex> guard(error_mutex);
          worker_error = error.what();
        }
      });
    }
    for (std::thread& worker : workers) worker.join();

    // The serial slice.
    std::vector<std::size_t> requote;
    for (const Kind kind : {kDelta, kCached}) {
      for (std::size_t i = (begin + end) / 2; i < end; ++i) {
        if (samples[i].kind == kind && field(samples[i].response, "status") == "ok") {
          requote.push_back(i);
          break;
        }
      }
    }
    try {
      Connection conn(socket_path);
      // One round trip first, so the server's thread for this connection
      // exists in both CPU readings.
      conn.round_trip("PING");
      const auto cpu0 = thread_cpu_ns(server_pid);
      for (std::size_t k = 0; k < 4; ++k, ++serial_n) {
        const bool traced = trace && serial_n % 2 == 1;
        Tracer::global().set_enabled(traced);
        const bool is_requote = k < requote.size();
        const auto t0 = Clock::now();
        const std::string response = traced_round_trip(
            conn, is_requote ? samples[requote[k]].line + " cache=0 delta=0" : cold_line,
            "service.serial.cold");
        serial_cold_s[traced].push_back(seconds_between(t0, Clock::now()));
        if (field(response, "status") != "ok" || field(response, "source") != "cold" ||
            elt_lookups(response) != cold_lookups) {
          ++serial_failed;
        }
        if (is_requote) {
          std::string expected = field(samples[requote[k]].response, "quotes");
          if (corrupt && requoted == 0) {
            const std::size_t at = expected.find("\"technical_premium\":") + 20;
            expected[at] = expected[at] == '9' ? '1' : static_cast<char>(expected[at] + 1);
          }
          ++requoted;
          if (field(response, "quotes") != expected) ++requote_failed;
        }
      }
      cpu_s += cpu_between(cpu0, thread_cpu_ns(server_pid));
      Tracer::global().set_enabled(trace);
      const auto delta_cpu0 = thread_cpu_ns(server_pid);
      for (std::size_t k = 0; k < 60; ++k) {
        const auto t0 = Clock::now();
        const std::string response = traced_round_trip(conn, delta_line(), "service.serial.delta");
        serial_delta_ms.push_back(seconds_between(t0, Clock::now()) * 1e3);
        if (field(response, "status") != "ok" || field(response, "source") != "delta") {
          ++serial_failed;
        }
      }
      delta_cpu_s += cpu_between(delta_cpu0, thread_cpu_ns(server_pid));
    } catch (const std::exception& error) {
      worker_error = error.what();
    }
    begin = end;
  }
  finished.store(true);
  scraper.join();
  if (!worker_error.empty()) std::fprintf(stderr, "loadgen: %s\n", worker_error.c_str());

  // Per-quote checks: status ok, the path the request class must take, and
  // for cold quotes the full lookup count — never less; the serial slice
  // checks it exactly, since per-request telemetry is a diff of the
  // process-global registry and counts any overlapping cold quote too.
  std::vector<double> latency[3], server_ms[3], wire_ms, queue_ms, late_ms;
  std::uint64_t window_failed = 0, met = 0, rejected = 0, lookup_short = 0, wrong_source = 0;
  std::size_t sent = 0;
  for (const Sample& s : samples) {
    if (s.response.empty()) {
      ++window_failed;
      continue;
    }
    ++sent;
    const double ms = seconds_between(s.due_at, s.done_at) * 1e3;
    late_ms.push_back(seconds_between(s.due_at, s.sent_at) * 1e3);
    const bool ok = field(s.response, "status") == "ok";
    if (field(s.response, "status") == "rejected") ++rejected;
    const bool right_path = field(s.response, "source") == kKindName[s.kind];
    const bool full_work = s.kind != kCold || elt_lookups(s.response) >= cold_lookups;
    const bool figures_ok = s.response.find("[cached figures differ") == std::string::npos;
    if (!right_path) ++wrong_source;
    if (!full_work) ++lookup_short;
    if (!(ok && right_path && full_work && figures_ok)) {
      ++window_failed;
      continue;
    }
    latency[s.kind].push_back(ms);
    const double wall_ms = number(s.response, "wall_seconds") * 1e3;
    server_ms[s.kind].push_back(wall_ms);
    wire_ms.push_back(seconds_between(s.sent_at, s.done_at) * 1e3 - wall_ms);
    if (s.kind == kCold) queue_ms.push_back(number(s.response, "queue_wait_seconds") * 1e3);
    if (ms <= kSloMs[s.kind]) ++met;
  }

  result.count(n + serial_n + serial_delta_ms.size(),
               window_failed + requote_failed + serial_failed);
  result.gate("quotes_ok_on_their_path", window_failed == 0,
              std::to_string(window_failed) + " failed: " + std::to_string(wrong_source) +
                  " wrong source, " + std::to_string(lookup_short) + " cold quotes short of " +
                  std::to_string(cold_lookups) + " lookups, " + std::to_string(rejected) +
                  " rejected");
  result.gate("requoted_cold_figures_match", requote_failed == 0 && requoted > 0,
              std::to_string(requote_failed) + " of " + std::to_string(requoted) +
                  " re-quotes differ");
  result.gate("serial_quotes_ok", serial_failed == 0,
              std::to_string(serial_failed) + " serial quotes not ok, on the wrong path, or " +
                  "(cold) not at exactly " + std::to_string(cold_lookups) + " lookups");
  result.gate("loadgen_transport", worker_error.empty(), worker_error);

  for (const Kind kind : {kCold, kDelta, kCached}) {
    const std::string name = kKindName[kind];
    result.metric(name + "_quote_ms_p50", quantile(latency[kind], 0.5), "ms");
    result.metric(name + "_quote_ms_p90", quantile(latency[kind], 0.9), "ms");
    result.metric(name + "_quotes", static_cast<double>(latency[kind].size()), "count");
    result.metric("service." + name + "_server_ms_p50", quantile(server_ms[kind], 0.5), "ms");
  }
  result.metric("slo_frac", n ? static_cast<double>(met) / static_cast<double>(n) : 0.0, "ratio");
  result.metric("analysis_s", median(serial_cold_s[0]), "s");
  result.metric("analysis_cpu_s", serial_n ? cpu_s / static_cast<double>(serial_n) : 0.0, "s");
  result.metric("reprice_ms_p50", quantile(serial_delta_ms, 0.5), "ms");
  result.metric("reprice_ms_p90", quantile(serial_delta_ms, 0.9), "ms");
  result.metric("reprice_cpu_ms",
                delta_cpu_s * 1e3 /
                    static_cast<double>(std::max<std::size_t>(1, serial_delta_ms.size())),
                "ms");
  result.metric("service.wire_ms_p50", quantile(wire_ms, 0.5), "ms");
  result.metric("service.queue_wait_ms_p50", quantile(queue_ms, 0.5), "ms");
  result.metric("service.queue_wait_ms_p90", quantile(queue_ms, 0.9), "ms");
  result.metric("service.cache_hit_frac",
                sent ? static_cast<double>(latency[kCached].size()) / static_cast<double>(sent)
                     : 0.0,
                "ratio");
  result.metric("obs.scrape_ms_p50", quantile(scrape_s, 0.5) * 1e3, "ms");
  result.metric("obs.scrape_failures", static_cast<double>(scrape_failures), "count");
  result.metric("harness.late_ms_p90", quantile(late_ms, 0.9), "ms");
  result.metric("harness.backlog_max", static_cast<double>(backlog_max.load()), "count");
  result.metric("quotes_sent", static_cast<double>(sent), "count");
  result.metric("offered_rate", rate, "1/s");
  if (trace) {
    result.metric("obs.trace_overhead_frac",
                  median(serial_cold_s[1]) / median(serial_cold_s[0]), "ratio");
  }
  result.write(flags.require("out"));
  if (trace) Tracer::global().write_chrome_json(flags.require("trace-out"));
  return result.gates_passed() ? 0 : 3;
}

}  // namespace perfbench
