// E18 service benchmark: shared declarations.
//
// The benchmark drives a replicated trusted service (§5: directory or
// notary) end to end: one ServiceClient endpoint issues requests, four
// app::Replica hosts (n = 4, t = 1) order and execute them over
// NetworkedNode, and every accepted reply is a threshold-signed receipt.
// The driver times its own calls into each layer's public functions; no
// tracing lives inside src/.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "adversary/quorum.hpp"
#include "app/client.hpp"

namespace sintra::servicebench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
          .count());
}

enum class Service { kDirectory, kNotary };
enum class TransportKind { kLoopback, kTcp };

/// One traffic mix.  Everything a workload varies lives here; the seed
/// only picks keys, values and documents.
struct WorkloadSpec {
  std::string name;
  Service service = Service::kDirectory;
  TransportKind transport = TransportKind::kLoopback;
  bool honest_crypto = false;    ///< secp256k1 + 512-bit RSA primes, else CryptoConfig::fast()
  bool executors = false;        ///< one shared ExecutorPool of min(3, nproc-1) threads
  bool closed_loop = true;
  std::size_t window = 32;       ///< closed loop: outstanding requests
  double rate_per_s = 0;         ///< open loop: fixed arrival rate
  std::size_t keys = 4096;       ///< directory key space
  std::size_t value_bytes = 64;  ///< directory values / notary documents
  double bind_fraction = 0.5;    ///< directory: binds vs lookups
  int checkpoint_interval = 8;   ///< atomic-mode certified checkpoints (0 = off)
  /// Deterministic count pass (traced run): requests driven to completion.
  std::size_t count_requests = 512;
  /// Open-loop count pass: request i is released at pump iteration
  /// i * count_spacing, a virtual clock that keeps the pass deterministic.
  std::uint64_t count_spacing = 0;
};

[[nodiscard]] const WorkloadSpec* find_workload(std::string_view name);
[[nodiscard]] std::vector<std::string> workload_names();

[[nodiscard]] adversary::CryptoConfig crypto_config(const WorkloadSpec& spec);
[[nodiscard]] std::size_t executor_threads(const WorkloadSpec& spec);

/// Which tracing a cluster records.
enum class TraceMode {
  kOff,     ///< end-to-end runs: no clock reads beyond the generator's
  kSpans,   ///< traced timed window: spans around every layer call
  kCounts,  ///< deterministic count pass: decode every outbound payload
};

/// Per-layer accumulators.  Spans on the pump thread nest (a node poll
/// contains the transport sends its flush makes; a hub step contains the
/// receive callbacks it fires), so each keeps total and self time.  The
/// receive callback also runs on TCP reactor threads, hence the atomics.
class Ledger {
 public:
  enum Span : int {
    kClientRequest = 0,
    kClientPoll,
    kNodePoll,
    kHubStep,
    kSend,
    kRecv,
    kExecWait,
    kIdle,
    kSpanCount,
  };
  static constexpr const char* kSpanNames[kSpanCount] = {
      "client.request", "client.poll", "node.poll", "hub.step",
      "transport.send", "transport.recv", "executor.wait", "pump.idle"};

  struct Totals {
    std::uint64_t total_ns = 0;
    std::uint64_t self_ns = 0;
    std::uint64_t count = 0;
  };

  explicit Ledger(TraceMode mode) : mode_(mode) {}

  /// Switch modes between windows, from the pump thread with no span open.
  void set_mode(TraceMode mode) { mode_.store(mode, std::memory_order_relaxed); }
  [[nodiscard]] bool spans() const { return mode_.load(std::memory_order_relaxed) == TraceMode::kSpans; }
  [[nodiscard]] bool counts() const { return mode_.load(std::memory_order_relaxed) == TraceMode::kCounts; }

  /// Pump-thread span; a no-op unless spans() is on.
  class Scope {
   public:
    Scope(Ledger& ledger, Span span);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Ledger* ledger_;
  };

  /// Receive-callback timing from any thread (pump or reactor).
  void add_recv(std::uint64_t ns, bool on_pump);

  /// Count pass: classify one outbound payload by its tag.
  void count_payload(const std::string& tag, std::size_t bytes);

  [[nodiscard]] Totals totals(Span span) const;
  /// Sum of top-level (depth-0) pump spans.
  [[nodiscard]] std::uint64_t top_level_ns() const { return top_level_ns_; }

  struct ProtocolCount {
    std::uint64_t msgs = 0;
    std::uint64_t bytes = 0;
  };
  /// Innermost known component -> counts ("abc", "vba", "cb", "ba", "sc", "reply").
  [[nodiscard]] const std::map<std::string, ProtocolCount>& protocol_counts() const {
    return protocol_;
  }
  [[nodiscard]] std::uint64_t payload_bytes() const { return payload_bytes_; }
  [[nodiscard]] int max_round() const { return max_round_; }

 private:
  struct Frame {
    Span span;
    std::uint64_t start;
    std::uint64_t child_ns;
  };

  std::atomic<TraceMode> mode_;  ///< read by TCP reactor threads
  Totals totals_[kSpanCount];
  std::atomic<std::uint64_t> recv_ns_{0};
  std::atomic<std::uint64_t> recv_count_{0};
  Frame stack_[8];
  int depth_ = 0;
  std::uint64_t top_level_ns_ = 0;
  std::map<std::string, ProtocolCount> protocol_;
  std::uint64_t payload_bytes_ = 0;
  int max_round_ = 0;
};

/// One request as the client saw it: kept for the output checks, which
/// run after the timed window.
struct Record {
  std::uint64_t request_id = 0;
  Bytes body;
  std::uint64_t due_ns = 0;     ///< open loop: schedule slot; closed: slot freed
  std::uint64_t issue_ns = 0;
  std::uint64_t done_ns = 0;    ///< 0 = no receipt yet
  std::optional<app::ServiceClient::Receipt> receipt;
};

struct CheckReport {
  bool ok = true;
  std::uint64_t bad_receipts = 0;
  std::vector<std::string> failures;
  void fail(std::string why) {
    ok = false;
    failures.push_back(std::move(why));
  }
};

/// Output checks (checks.cpp).  `executed` is each replica's
/// executed_count after draining.
CheckReport check_outputs(const WorkloadSpec& spec, const app::ServiceClient& client,
                          const std::vector<Record>& records,
                          const std::vector<std::uint64_t>& executed);

/// Crypto unit costs in µs per operation (calibrate.cpp), measured
/// through the public src/crypto calls on the workload's own keys.
std::map<std::string, double> calibrate_crypto(const adversary::Deployment& deployment,
                                               std::uint64_t seed);

}  // namespace sintra::servicebench
