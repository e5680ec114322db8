// E18 service benchmark driver.
//
//   e18_service --workload NAME --seed N --seconds S --trace 0|1
//
// Sets the deployment up eleven times, each followed by a quarter second
// of load (set-up time is the median), warms the last one up for a second,
// and measures one window of S seconds.  With
// --trace 1 the window alternates untraced and traced slices (spans
// around every layer call), then a deterministic count pass runs on a
// fresh cluster, then the crypto unit costs are timed.  Afterwards it drains every
// outstanding request and runs the output checks.  Prints one JSON object
// and exits 1 if any check failed.
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "app/directory.hpp"
#include "app/notary.hpp"
#include "cluster.hpp"

namespace sintra::servicebench {

namespace {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

/// Set-ups per run; the reported set-up time is their median.
constexpr int kSetups = 11;
/// Load after each set-up; the last deployment set up is the one measured.
constexpr double kSetupLoadSeconds = 0.25;

std::uint64_t clock_ns(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0;
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = p * static_cast<double>(values.size() - 1);
  const auto low = static_cast<std::size_t>(std::floor(rank));
  const std::size_t high = std::min(low + 1, values.size() - 1);
  return values[low] + (values[high] - values[low]) * (rank - static_cast<double>(low));
}

double median(std::vector<double> values) { return percentile(std::move(values), 0.5); }

/// Request bodies, drawn from the seed alone.
class Generator {
 public:
  Generator(const WorkloadSpec& spec, std::uint64_t seed) : spec_(spec), rng_(seed ^ 0x6e7e4a7eull) {}

  Bytes next() {
    ++drawn_;
    if (spec_.service == Service::kNotary) {
      // Distinct documents: every registration gets a fresh sequence number.
      Writer w;
      w.u64(drawn_);
      w.raw(rng_.bytes(spec_.value_bytes - 8));
      app::NotaryRequest request;
      request.op = app::NotaryRequest::Op::kRegister;
      request.document = w.take();
      return request.encode();
    }
    constexpr std::uint64_t kScale = 1u << 20;
    app::DirRequest request;
    const bool bind =
        rng_.below(kScale) < static_cast<std::uint64_t>(spec_.bind_fraction * kScale);
    request.op = bind ? app::DirRequest::Op::kBind : app::DirRequest::Op::kLookup;
    request.key = "k" + std::to_string(rng_.below(spec_.keys));
    if (bind) request.value = rng_.bytes(spec_.value_bytes);
    return request.encode();
  }

 private:
  const WorkloadSpec& spec_;
  Rng rng_;
  std::uint64_t drawn_ = 0;
};

struct WindowStats {
  double seconds = 0;
  std::uint64_t committed = 0;
  std::vector<double> latency_ms;
  std::vector<double> late_ms;
  std::uint64_t process_cpu_ns = 0;
  std::uint64_t pump_cpu_ns = 0;
  [[nodiscard]] double rps() const { return static_cast<double>(committed) / seconds; }

  void merge(const WindowStats& other) {
    seconds += other.seconds;
    committed += other.committed;
    latency_ms.insert(latency_ms.end(), other.latency_ms.begin(), other.latency_ms.end());
    late_ms.insert(late_ms.end(), other.late_ms.begin(), other.late_ms.end());
    process_cpu_ns += other.process_cpu_ns;
    pump_cpu_ns += other.pump_cpu_ns;
  }
};

/// One cluster plus the client-side generator and request log.
class Runner {
 public:
  Runner(const WorkloadSpec& spec, std::uint64_t seed, TraceMode mode)
      : spec_(spec), seed_(seed), ledger_(mode) {}

  /// Replace the deployment with a fresh one and restart the request
  /// stream; returns the set-up time in seconds (teardown not included).
  double setup() {
    cluster_.reset();
    records_.clear();
    freed_.clear();
    const std::uint64_t start = now_ns();
    cluster_ = std::make_unique<Cluster>(
        spec_, ledger_, [this](std::uint64_t id, app::ServiceClient::Receipt receipt) {
          on_reply(id, std::move(receipt));
        });
    const std::uint64_t end = now_ns();
    generator_ = std::make_unique<Generator>(spec_, seed_);
    next_due_ = end;
    return static_cast<double>(end - start) / 1e9;
  }

  WindowStats run_window(double seconds) {
    WindowStats stats;
    const std::size_t first = records_.size();
    const std::uint64_t cpu0 = clock_ns(CLOCK_PROCESS_CPUTIME_ID);
    const std::uint64_t pump0 = clock_ns(CLOCK_THREAD_CPUTIME_ID);
    const std::uint64_t start = now_ns();
    const auto end = start + static_cast<std::uint64_t>(seconds * 1e9);
    std::uint64_t now = start;
    while (now < end) {
      feed(now);
      iterate();
      now = now_ns();
    }
    stats.seconds = static_cast<double>(now - start) / 1e9;
    stats.process_cpu_ns = clock_ns(CLOCK_PROCESS_CPUTIME_ID) - cpu0;
    stats.pump_cpu_ns = clock_ns(CLOCK_THREAD_CPUTIME_ID) - pump0;
    for (const Record& record : records_) {
      if (record.done_ns >= start && record.done_ns < now) {
        ++stats.committed;
        const std::uint64_t from = spec_.closed_loop ? record.issue_ns : record.due_ns;
        stats.latency_ms.push_back(static_cast<double>(record.done_ns - from) / 1e6);
      }
    }
    for (std::size_t i = first; i < records_.size(); ++i) {
      stats.late_ms.push_back(static_cast<double>(records_[i].issue_ns - records_[i].due_ns) / 1e6);
    }
    return stats;
  }

  /// Stop issuing and pump until every request has its receipt and every
  /// replica executed all of them.  False on timeout.
  bool drain(double timeout_seconds) {
    const auto deadline = now_ns() + static_cast<std::uint64_t>(timeout_seconds * 1e9);
    while (cluster_->client().outstanding() > 0) {
      if (now_ns() > deadline) return false;
      iterate();
    }
    while (!all_executed()) {
      if (now_ns() > deadline) return false;
      for (int i = 0; i < 64; ++i) iterate();
    }
    return true;
  }

  /// Deterministic count pass: exactly `spec.count_requests` requests,
  /// released by a pump-iteration clock (never the wall clock), then the
  /// cluster is pumped until nothing moves.
  bool run_count_pass(double timeout_seconds) {
    const auto deadline = now_ns() + static_cast<std::uint64_t>(timeout_seconds * 1e9);
    std::uint64_t iteration = 0;
    while (records_.size() < spec_.count_requests || cluster_->client().outstanding() > 0) {
      if (now_ns() > deadline) return false;
      if (spec_.closed_loop) {
        while (records_.size() < spec_.count_requests &&
               cluster_->client().outstanding() < spec_.window) {
          issue(now_ns());
        }
      } else {
        while (records_.size() < spec_.count_requests &&
               iteration >= records_.size() * spec_.count_spacing) {
          issue(now_ns());
        }
      }
      iterate(/*may_sleep=*/false);
      ++iteration;
    }
    for (;;) {  // quiesce: the last replies, rounds and checkpoint shares
      if (now_ns() > deadline) return false;
      if (cluster_->pump() || cluster_->settle() || cluster_->pump()) continue;
      if (all_executed()) return true;
      std::this_thread::yield();  // TCP: frames still on the reactor threads
    }
  }

  [[nodiscard]] Cluster& cluster() { return *cluster_; }
  [[nodiscard]] Ledger& ledger() { return ledger_; }
  [[nodiscard]] const std::vector<Record>& records() const { return records_; }

 private:
  /// Every replica executed every request issued so far.
  bool all_executed() {
    const auto executed = cluster_->executed_counts();
    return std::all_of(executed.begin(), executed.end(),
                       [&](std::uint64_t count) { return count == records_.size(); });
  }

  void on_reply(std::uint64_t id, app::ServiceClient::Receipt receipt) {
    Record& record = records_.at(id - 1);
    record.done_ns = now_ns();
    record.receipt = std::move(receipt);
    if (spec_.closed_loop) freed_.push_back(record.done_ns);
  }

  void issue(std::uint64_t due) {
    Record record;
    record.body = generator_->next();
    record.due_ns = due;
    Bytes body = record.body;
    {
      Ledger::Scope scope(ledger_, Ledger::kClientRequest);
      record.issue_ns = now_ns();
      record.request_id = cluster_->client().request(std::move(body));
    }
    records_.push_back(std::move(record));
  }

  /// Closed loop: refill the window, each new request due when the
  /// receipt that freed its slot arrived.  Open loop: release every
  /// request whose fixed-rate slot has passed.
  void feed(std::uint64_t now) {
    if (spec_.closed_loop) {
      while (cluster_->client().outstanding() < spec_.window) {
        std::uint64_t due = now;
        if (!freed_.empty()) {
          due = freed_.front();
          freed_.pop_front();
        }
        issue(due);
      }
    } else {
      const auto interval = static_cast<std::uint64_t>(1e9 / spec_.rate_per_s);
      while (next_due_ <= now) {
        issue(next_due_);
        next_due_ += interval;
      }
    }
  }

  void iterate(bool may_sleep = true) {
    if (cluster_->pump() || cluster_->settle()) return;
    Ledger::Scope scope(ledger_, Ledger::kIdle);
    if (may_sleep && !spec_.closed_loop) {
      // Open loop with nothing in flight: sleep until shortly before the
      // next arrival, so idle time does not burn CPU.
      const std::uint64_t now = now_ns();
      if (next_due_ > now + 300'000) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(
            std::min<std::uint64_t>(next_due_ - now - 150'000, 2'000'000)));
        return;
      }
    }
    std::this_thread::yield();
  }

  const WorkloadSpec& spec_;
  std::uint64_t seed_;
  Ledger ledger_;
  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<Generator> generator_;
  std::vector<Record> records_;      ///< index = request id - 1
  std::deque<std::uint64_t> freed_;  ///< closed loop: receipt times not yet reused
  std::uint64_t next_due_ = 0;       ///< open loop: next arrival
};

// --- output ------------------------------------------------------------------

std::string json_string(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "0";
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

struct Metrics {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items;
  void add(const std::string& name, double value, const std::string& unit) {
    items.push_back({name, {value, unit}});
  }
  [[nodiscard]] std::string json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (i > 0) out += ", ";
      out += json_string(items[i].first) + ": {\"value\": " + json_number(items[i].second.first) +
             ", \"unit\": " + json_string(items[i].second.second) + "}";
    }
    return out + "}";
  }
};

void add_end_to_end(Metrics& metrics, const WindowStats& window, double setup_s) {
  metrics.add("committed_rps", window.rps(), "1/s");
  metrics.add("latency_p50_ms", percentile(window.latency_ms, 0.5), "ms");
  metrics.add("latency_p90_ms", percentile(window.latency_ms, 0.9), "ms");
  metrics.add("setup_s", setup_s, "s");
}

/// Per-layer times from the traced window, µs per committed request.
void add_span_metrics(Metrics& metrics, const WorkloadSpec& spec, Runner& runner,
                      const WindowStats& plain, const WindowStats& traced) {
  const Ledger& ledger = runner.ledger();
  const double per_req = static_cast<double>(std::max<std::uint64_t>(1, traced.committed));
  auto us = [&](std::uint64_t ns) { return static_cast<double>(ns) / 1000.0 / per_req; };
  const auto total = [&](Ledger::Span span) { return ledger.totals(span).total_ns; };
  const auto self = [&](Ledger::Span span) { return ledger.totals(span).self_ns; };

  metrics.add("client.request_us", us(total(Ledger::kClientRequest)), "us");
  metrics.add("client.reply_us", us(self(Ledger::kClientPoll)), "us");
  metrics.add("node.poll_us", us(self(Ledger::kNodePoll)), "us");
  metrics.add("transport.send_us", us(total(Ledger::kSend)), "us");
  metrics.add("transport.recv_us", us(total(Ledger::kRecv)), "us");
  if (spec.transport == TransportKind::kLoopback) {
    metrics.add("transport.step_us", us(self(Ledger::kHubStep)), "us");
  } else {
    // Reactor threads move the bytes: their CPU time (everything but the
    // pump; TCP runs no executor threads) less the receive callbacks.
    const std::uint64_t reactor = traced.process_cpu_ns - std::min(traced.process_cpu_ns, traced.pump_cpu_ns);
    metrics.add("transport.step_us", us(reactor - std::min(reactor, total(Ledger::kRecv))), "us");
  }
  // Waiting is reported as a share of the pump's wall time: a saturated
  // closed loop never waits, and a share of 0 is a finding, not a time.
  const double wall_ns = traced.seconds * 1e9;
  metrics.add("executor.wait_frac", static_cast<double>(total(Ledger::kExecWait)) / wall_ns, "ratio");
  metrics.add("pump.idle_frac", static_cast<double>(total(Ledger::kIdle)) / wall_ns, "ratio");
  metrics.add("pump.accounted_frac", static_cast<double>(ledger.top_level_ns()) / wall_ns, "ratio");
  metrics.add("generator.late_ms_p90", percentile(traced.late_ms, 0.9), "ms");
  metrics.add("process.cpu_ms_per_req", static_cast<double>(traced.process_cpu_ns) / 1e6 / per_req,
              "ms");
  metrics.add("trace.rps_ratio", traced.rps() / plain.rps(), "ratio");
}

/// Per-layer counts from the deterministic count pass.
void add_count_metrics(Metrics& metrics, Runner& counted) {
  const double per_req = static_cast<double>(counted.records().size());
  const Ledger& ledger = counted.ledger();
  const Cluster::LayerStats stats = counted.cluster().layer_stats();
  metrics.add("node.dispatched_per_req", static_cast<double>(stats.dispatched) / per_req, "count");
  metrics.add("node.dropped_inbox", static_cast<double>(stats.dropped_inbox), "count");
  metrics.add("abc.reqs_per_round",
              per_req / static_cast<double>(std::max(1, ledger.max_round())), "count");
  for (const char* component : {"abc", "vba", "cb", "ba", "sc", "reply"}) {
    const auto it = ledger.protocol_counts().find(component);
    const Ledger::ProtocolCount count =
        it == ledger.protocol_counts().end() ? Ledger::ProtocolCount{} : it->second;
    const std::string prefix = std::string("protocol.") + component;
    metrics.add(prefix + ".msgs_per_req", static_cast<double>(count.msgs) / per_req, "count");
    metrics.add(prefix + ".bytes_per_req", static_cast<double>(count.bytes) / per_req, "B");
  }
  metrics.add("transport.bytes_per_req", static_cast<double>(ledger.payload_bytes()) / per_req, "B");
  metrics.add("transport.frames_per_req", static_cast<double>(stats.frames) / per_req, "count");
  metrics.add("transport.hmacs_per_req", static_cast<double>(stats.hmacs) / per_req, "count");
  metrics.add("transport.payloads_per_batch",
              stats.batches == 0 ? 0.0
                                 : static_cast<double>(stats.batched_payloads) /
                                       static_cast<double>(stats.batches),
              "count");
  metrics.add("transport.syscalls_per_req", static_cast<double>(stats.syscalls) / per_req, "count");
  metrics.add("transport.retransmitted", static_cast<double>(stats.retransmitted), "count");
  metrics.add("executor.tasks_per_req", static_cast<double>(stats.tasks) / per_req, "count");
  metrics.add("executor.lane_imbalance", stats.lane_imbalance, "ratio");
}

std::string ledger_json(const Ledger& ledger) {
  std::string out = "{";
  for (int span = 0; span < Ledger::kSpanCount; ++span) {
    const Ledger::Totals totals = ledger.totals(static_cast<Ledger::Span>(span));
    if (span > 0) out += ", ";
    out += json_string(Ledger::kSpanNames[span]) +
           ": {\"total_ms\": " + json_number(static_cast<double>(totals.total_ns) / 1e6) +
           ", \"self_ms\": " + json_number(static_cast<double>(totals.self_ns) / 1e6) +
           ", \"count\": " + std::to_string(totals.count) + "}";
  }
  return out + "}";
}

int usage(const char* program) {
  std::cerr << "usage: " << program
            << " --workload NAME --seed N --seconds S --trace 0|1\nworkloads:";
  for (const auto& name : workload_names()) std::cerr << " " << name;
  std::cerr << "\n";
  return 2;
}

/// Traced runs split the window into this many alternating slices.
constexpr int kTraceSlices = 4;

int run(const Options& options) {
  const WorkloadSpec& spec = *find_workload(options.workload);
  Runner runner(spec, options.seed, TraceMode::kOff);
  // Set-ups alternate with short bursts of load, so their median samples
  // the host over seconds rather than one instant: on a shared host the
  // same set-up swings by half its length from one moment to the next.
  std::vector<double> setups;
  for (int i = 0; i < kSetups; ++i) {
    setups.push_back(runner.setup());
    runner.run_window(kSetupLoadSeconds);
  }
  const double setup_s = median(setups);
  runner.run_window(1.0);  // warm-up: lazy tables, caches, a full window in flight

  WindowStats plain;
  WindowStats traced;
  if (!options.trace) {
    plain = runner.run_window(options.seconds);
  } else {
    // Untraced and traced slices alternate, so drift over the run does
    // not masquerade as tracing overhead.
    for (int slice = 0; slice < kTraceSlices; ++slice) {
      const bool on = slice % 2 == 1;
      runner.ledger().set_mode(on ? TraceMode::kSpans : TraceMode::kOff);
      (on ? traced : plain).merge(runner.run_window(options.seconds / kTraceSlices));
    }
    runner.ledger().set_mode(TraceMode::kOff);
  }
  const bool drained = runner.drain(60);
  const CheckReport report =
      check_outputs(spec, runner.cluster().client(), runner.records(),
                    runner.cluster().executed_counts());

  std::uint64_t unanswered = 0;
  for (const Record& record : runner.records()) unanswered += record.receipt ? 0 : 1;
  const std::uint64_t attempted = runner.records().size();
  const std::uint64_t failed = unanswered + report.bad_receipts;
  std::vector<std::string> failures = report.failures;
  if (!drained) failures.push_back("drain timed out");

  Metrics metrics;
  std::string ledger_dump = "{}";
  if (!options.trace) {
    add_end_to_end(metrics, plain, setup_s);
    metrics.add("failed_frac", static_cast<double>(failed) / static_cast<double>(attempted), "ratio");
  } else {
    add_span_metrics(metrics, spec, runner, plain, traced);
    ledger_dump = ledger_json(runner.ledger());
    const auto costs = calibrate_crypto(runner.cluster().deployment(), options.seed);
    for (const auto& [name, value] : costs) metrics.add(name, value, "us");
    Runner counted(spec, options.seed, TraceMode::kCounts);
    counted.setup();
    if (counted.run_count_pass(120)) {
      add_count_metrics(metrics, counted);
    } else {
      failures.push_back("count pass did not complete");
    }
  }
  metrics.add("peak_rss_mb", peak_rss_mb(), "MB");

  const auto& keys = runner.cluster().deployment().keys->public_keys();
  const bool correct = failures.empty() && report.ok;
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
      << ", \"failed\": " << failed << ", \"metrics\": " << metrics.json()
      << ", \"failures\": [";
  for (std::size_t i = 0; i < failures.size(); ++i) out << (i ? ", " : "") << json_string(failures[i]);
  out << "], \"ledger\": " << ledger_dump << ", \"stamp\": {"
      << "\"workload\": " << json_string(spec.name) << ", \"seed\": " << options.seed
      << ", \"seconds\": " << json_number(options.seconds)
      << ", \"build_type\": " << json_string(SERVICEBENCH_BUILD_TYPE)
      << ", \"group_backend\": " << json_string(keys.coin.group().name())
      << ", \"rsa_modulus_bits\": " << keys.reply_sig.modulus().bit_length()
      << ", \"nproc\": " << std::thread::hardware_concurrency()
      << ", \"executors\": " << executor_threads(spec)
      << ", \"transport\": " << json_string(spec.transport == TransportKind::kTcp ? "tcp" : "loopback")
      << ", \"service\": " << json_string(spec.service == Service::kDirectory ? "directory" : "notary")
      << ", \"loop\": " << json_string(spec.closed_loop ? "closed" : "open")
      << ", \"window\": " << spec.window << ", \"rate_per_s\": " << json_number(spec.rate_per_s)
      << ", \"value_bytes\": " << spec.value_bytes << "}}";
  std::cout << out.str() << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace sintra::servicebench

int main(int argc, char** argv) {
  using namespace sintra::servicebench;
  Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      options.seconds = std::stod(value);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else {
      return usage(argv[0]);
    }
  }
  if (argc % 2 != 1 || find_workload(options.workload) == nullptr || options.seconds <= 0) {
    return usage(argv[0]);
  }
  try {
    return run(options);
  } catch (const std::exception& error) {
    std::cerr << "e18_service: " << error.what() << "\n";
    return 3;
  }
}
