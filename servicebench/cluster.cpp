#include "cluster.hpp"

#include <algorithm>
#include <stdexcept>
#include <thread>

#include "app/directory.hpp"
#include "app/notary.hpp"
#include "crypto/dealer.hpp"
#include "crypto/sha256.hpp"

namespace sintra::servicebench {

// --- workloads -------------------------------------------------------------

namespace {

std::vector<WorkloadSpec> make_workloads() {
  std::vector<WorkloadSpec> all;

  // Throughput regime: batching amortises rounds, threshold-RSA share work
  // dominates.  32 outstanding saturate the pump (64, the replica's
  // per-client admission cap, gives the same throughput at twice the
  // queueing, and over TCP flips between two batching regimes).
  WorkloadSpec fast;
  fast.name = "directory_fast";
  all.push_back(fast);

  // Latency regime with small batches: secure causal broadcast, TDH2 and
  // the coin, which the directory bypasses.  At 10 req/s each request
  // finds the service idle.  Nearer saturation (30-60 req/s, a quarter to
  // a half of it on a 4-CPU host) arrivals and rounds interlock, and
  // latency flipped between regimes as the host's speed drifted.  Run by
  // hand, not gated: even at 10 req/s its p50 spread over ten runs
  // (0.24-0.29 of the median) exceeded the benchmark's bound.
  WorkloadSpec notary;
  notary.name = "notary_open";
  notary.service = Service::kNotary;
  notary.closed_loop = false;
  notary.rate_per_s = 10;
  notary.checkpoint_interval = 0;
  notary.count_requests = 128;
  notary.count_spacing = 1500;
  all.push_back(notary);

  // Honest sizes: bigint/Montgomery and secp256k1 work dominate.
  WorkloadSpec honest = fast;
  honest.name = "directory_honest";
  honest.honest_crypto = true;
  honest.window = 16;
  honest.bind_fraction = 1.0;
  honest.count_requests = 64;
  all.push_back(honest);

  // The two multi-threaded workloads below are run by hand too: on a
  // shared host their medians moved by 70% between sets of ten runs an
  // hour apart, as neighbours' load changed.

  // The only workload crossing sockets, the event loop and sendmsg; 1 KiB
  // values make serialization, hashing, framing and HMAC do real work.
  WorkloadSpec tcp = fast;
  tcp.name = "directory_tcp";
  tcp.transport = TransportKind::kTcp;
  tcp.value_bytes = 1024;
  all.push_back(tcp);

  // directory_honest on executor threads: ExecutorPool decisions show here.
  WorkloadSpec executors = honest;
  executors.name = "directory_honest_executors";
  executors.executors = true;
  all.push_back(executors);
  return all;
}

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> all = make_workloads();
  return all;
}

}  // namespace

const WorkloadSpec* find_workload(std::string_view name) {
  for (const WorkloadSpec& spec : workloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

std::vector<std::string> workload_names() {
  std::vector<std::string> names;
  for (const WorkloadSpec& spec : workloads()) names.push_back(spec.name);
  return names;
}

adversary::CryptoConfig crypto_config(const WorkloadSpec& spec) {
  if (!spec.honest_crypto) return adversary::CryptoConfig::fast();
  adversary::CryptoConfig config = adversary::CryptoConfig::curve();
  config.rsa_prime_bits = 512;  // largest precomputed safe-prime pair: 1024-bit modulus
  return config;
}

std::size_t executor_threads(const WorkloadSpec& spec) {
  if (!spec.executors) return 0;
  const std::size_t cpus = std::max(1u, std::thread::hardware_concurrency());
  return std::max<std::size_t>(1, std::min<std::size_t>(3, cpus - 1));
}

// --- ledger ----------------------------------------------------------------

Ledger::Scope::Scope(Ledger& ledger, Span span) : ledger_(ledger.spans() ? &ledger : nullptr) {
  if (ledger_ == nullptr) return;
  ledger_->stack_[ledger_->depth_++] = Frame{span, now_ns(), 0};
}

Ledger::Scope::~Scope() {
  if (ledger_ == nullptr) return;
  const std::uint64_t end = now_ns();
  const Frame frame = ledger_->stack_[--ledger_->depth_];
  const std::uint64_t duration = end - frame.start;
  Totals& totals = ledger_->totals_[frame.span];
  totals.total_ns += duration;
  totals.self_ns += duration - std::min(duration, frame.child_ns);
  ++totals.count;
  if (ledger_->depth_ > 0) {
    ledger_->stack_[ledger_->depth_ - 1].child_ns += duration;
  } else {
    ledger_->top_level_ns_ += duration;
  }
}

void Ledger::add_recv(std::uint64_t ns, bool on_pump) {
  recv_ns_.fetch_add(ns, std::memory_order_relaxed);
  recv_count_.fetch_add(1, std::memory_order_relaxed);
  if (on_pump && depth_ > 0) stack_[depth_ - 1].child_ns += ns;
}

void Ledger::count_payload(const std::string& tag, std::size_t bytes) {
  payload_bytes_ += bytes;
  // Innermost known component: the last tag segment naming a layer.
  // "dir/abc/7/vba/ba/2" -> ba; "dir/abc" -> abc; "dir/reply" -> reply.
  std::string component;
  std::size_t pos = 0;
  std::string previous;
  while (pos <= tag.size()) {
    const std::size_t slash = std::min(tag.find('/', pos), tag.size());
    const std::string segment = tag.substr(pos, slash - pos);
    if (segment == "abc" || segment == "vba" || segment == "cb" || segment == "ba" ||
        segment == "sc" || segment == "reply") {
      component = segment;
    }
    if (previous == "abc" && !segment.empty() &&
        std::all_of(segment.begin(), segment.end(), [](char c) { return c >= '0' && c <= '9'; })) {
      max_round_ = std::max(max_round_, std::stoi(segment));
    }
    previous = segment;
    pos = slash + 1;
  }
  if (component.empty()) return;  // client requests: no protocol layer yet
  ProtocolCount& count = protocol_[component];
  ++count.msgs;
  count.bytes += bytes;
}

Ledger::Totals Ledger::totals(Span span) const {
  if (span == kRecv) {
    return Totals{recv_ns_.load(), recv_ns_.load(), recv_count_.load()};
  }
  return totals_[span];
}

// --- cluster ---------------------------------------------------------------

namespace {

constexpr std::uint64_t kDeploymentSeed = 0x51a7a18;

std::string service_tag(const WorkloadSpec& spec) {
  return spec.service == Service::kDirectory ? "dir" : "notary";
}

app::Replica::Mode service_mode(const WorkloadSpec& spec) {
  return spec.service == Service::kDirectory ? app::Replica::Mode::kAtomic
                                             : app::Replica::Mode::kCausal;
}

}  // namespace

Cluster::Cluster(const WorkloadSpec& spec, Ledger& ledger, app::ServiceClient::ReplyFn on_reply)
    : spec_(spec), ledger_(ledger) {
  Rng dealer_rng(kDeploymentSeed);
  deployment_ = adversary::Deployment::threshold(kServers, kFaults, dealer_rng, crypto_config(spec));

  for (int id = 0; id < kEndpoints; ++id) {
    net::transport::NetworkedNode::Config config;
    config.node_id = id;
    config.n = kEndpoints;
    nodes_.push_back(std::make_unique<net::transport::NetworkedNode>(config));
  }

  // Every workload runs through an ExecutorPool; zero executors is the
  // inline sequential mode, so only directory_honest has executor threads.
  pool_ = std::make_unique<common::ExecutorPool>(executor_threads(spec));
  pool_->set_notify([this] {
    {
      std::lock_guard<std::mutex> lock(exec_mutex_);
      ++exec_batches_;
    }
    exec_cv_.notify_all();
  });
  const std::string tag = service_tag(spec);
  for (int id = 0; id < kServers; ++id) {
    auto& node = *nodes_[static_cast<std::size_t>(id)];
    node.set_executors(pool_.get());
    auto host = std::make_unique<protocols::HostedParty<app::Replica>>(
        node, id, deployment_, kDeploymentSeed * 7919 + static_cast<std::uint64_t>(id),
        [&](net::Party& party) {
          party.set_executors(pool_.get());
          party.set_lane_group(static_cast<std::uint64_t>(id));
          party.enable_wal();
          std::unique_ptr<app::Replica> replica;
          party.with_instance(tag, [&] {
            std::unique_ptr<app::StateMachine> machine;
            if (spec.service == Service::kDirectory) {
              machine = std::make_unique<app::SecureDirectory>();
            } else {
              machine = std::make_unique<app::Notary>();
            }
            replica = std::make_unique<app::Replica>(party, tag, service_mode(spec),
                                                     std::move(machine));
            if (spec.checkpoint_interval > 0) replica->enable_checkpoints(spec.checkpoint_interval);
          });
          return replica;
        });
    node.attach(*host);
    replicas_.push_back(std::move(host));
  }

  client_ = std::make_unique<app::ServiceClient>(*nodes_[kClientId], kClientId, deployment_, tag,
                                                 service_mode(spec), kDeploymentSeed ^ 0xc11e47ull,
                                                 std::move(on_reply));
  nodes_[kClientId]->attach(*client_);

  for (int id = 0; id < kEndpoints; ++id) {
    nodes_[static_cast<std::size_t>(id)]->bind_transport_batched(
        [this, id](int peer, std::vector<net::transport::GroupPayload> payloads) {
          send(id, peer, std::move(payloads));
        });
  }
  if (spec.transport == TransportKind::kLoopback) {
    wire_loopback();
  } else {
    wire_tcp();
  }
}

Cluster::~Cluster() {
  for (auto& transport : tcp_) transport->stop();
  if (pool_) pool_->stop();
}

void Cluster::wire_loopback() {
  hub_ = std::make_unique<net::transport::LoopbackHub>(kEndpoints, kDeploymentSeed ^ 0x40b1ull);
  for (int id = 0; id < kEndpoints; ++id) {
    hub_->set_receiver(id, [this, id](int from, std::uint32_t group, BytesView payload) {
      receive(id, from, group, payload);
    });
  }
}

Bytes Cluster::link_key(int a, int b) const {
  if (a < kServers && b < kServers) {
    return crypto::derive_link_key(deployment_.keys->share(a).channel_keys[static_cast<std::size_t>(b)]);
  }
  // The dealer deals server-to-server channel keys only; client links get
  // a key derived from the deployment seed.
  Writer w;
  w.u64(kDeploymentSeed);
  w.u32(static_cast<std::uint32_t>(std::min(a, b)));
  w.u32(static_cast<std::uint32_t>(std::max(a, b)));
  return crypto::hash_expand("servicebench/client-link", w.data(), 32);
}

void Cluster::wire_tcp() {
  std::vector<std::uint16_t> ports(kEndpoints, 0);
  for (int id = 0; id < kEndpoints; ++id) {
    net::transport::TcpTransport::Config config;
    config.node_id = id;
    config.endpoints.resize(kEndpoints);
    config.link_keys.resize(kEndpoints);
    for (int peer = 0; peer < kEndpoints; ++peer) {
      if (peer == id) continue;
      config.link_keys[static_cast<std::size_t>(peer)] = link_key(id, peer);
      // Higher ids dial lower ones, which are already listening.
      if (peer < id) config.endpoints[static_cast<std::size_t>(peer)].port = ports[static_cast<std::size_t>(peer)];
    }
    config.seed = kDeploymentSeed * 31 + static_cast<std::uint64_t>(id);
    tcp_.push_back(std::make_unique<net::transport::TcpTransport>(
        config, [this, id](int from, std::uint32_t group, BytesView payload) {
          receive(id, from, group, payload);
        }));
    tcp_.back()->start();
    ports[static_cast<std::size_t>(id)] = tcp_.back()->listen_port();
  }
  // Set-up includes the connect: every endpoint sees its four peers.
  const auto deadline = Clock::now() + std::chrono::seconds(20);
  for (;;) {
    bool connected = true;
    for (const auto& transport : tcp_) {
      connected = connected && transport->stats().connects >= kEndpoints - 1;
    }
    if (connected) break;
    if (Clock::now() > deadline) throw std::runtime_error("tcp: endpoints did not connect");
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

void Cluster::send(int from, int peer, std::vector<net::transport::GroupPayload> payloads) {
  if (ledger_.counts()) {
    for (const auto& payload : payloads) {
      const net::Message message =
          net::transport::NetworkedNode::decode_payload(from, peer, payload.payload);
      ledger_.count_payload(message.tag, payload.payload.size());
    }
  }
  Ledger::Scope scope(ledger_, Ledger::kSend);
  if (hub_) {
    hub_->send_many(from, peer, std::move(payloads));
  } else {
    tcp_[static_cast<std::size_t>(from)]->send_many(peer, std::move(payloads));
  }
}

void Cluster::receive(int to, int from, std::uint32_t group, BytesView payload) {
  if (!ledger_.spans()) {
    nodes_[static_cast<std::size_t>(to)]->on_transport_receive(from, group, payload);
    return;
  }
  const std::uint64_t start = now_ns();
  nodes_[static_cast<std::size_t>(to)]->on_transport_receive(from, group, payload);
  ledger_.add_recv(now_ns() - start, hub_ != nullptr);
}

bool Cluster::pump() {
  bool progressed = false;
  {
    Ledger::Scope scope(ledger_, Ledger::kClientPoll);
    progressed = nodes_[kClientId]->poll() > 0;
  }
  for (int id = 0; id < kServers; ++id) {
    Ledger::Scope scope(ledger_, Ledger::kNodePoll);
    progressed = (nodes_[static_cast<std::size_t>(id)]->poll() > 0) || progressed;
  }
  if (hub_) {
    Ledger::Scope scope(ledger_, Ledger::kHubStep);
    progressed = hub_->step() || progressed;
  }
  return progressed;
}

bool Cluster::settle() {
  {
    Ledger::Scope scope(ledger_, Ledger::kExecWait);
    wait_for_executors();
  }
  if (pump()) return true;
  if (hub_) {
    // Quiet: flush explicit acks and resend anything still unacked (the
    // hub's retransmit pass, which is why it only runs when quiet).
    Ledger::Scope scope(ledger_, Ledger::kHubStep);
    hub_->tick();
  }
  return false;
}

void Cluster::wait_for_executors() {
  if (pool_->sequential()) return;
  // Not wait_idle(): blocking until every executor is idle would hold back
  // the sends of executors that are already done.
  std::unique_lock<std::mutex> lock(exec_mutex_);
  exec_cv_.wait_for(lock, std::chrono::milliseconds(1),
                    [this] { return exec_batches_ != exec_seen_; });
  exec_seen_ = exec_batches_;
}

std::vector<std::uint64_t> Cluster::executed_counts() {
  pool_->wait_idle();
  std::vector<std::uint64_t> counts;
  for (auto& host : replicas_) counts.push_back(host->protocol().executed_count());
  return counts;
}

Cluster::LayerStats Cluster::layer_stats() const {
  LayerStats stats;
  for (int id = 0; id < kEndpoints; ++id) {
    const auto node = nodes_[static_cast<std::size_t>(id)]->stats();
    if (id < kServers) stats.dispatched += node.dispatched;
    stats.dropped_inbox += node.dropped_inbox;
  }
  if (hub_) {
    const auto& hub = hub_->stats();
    stats.frames = hub.delivered_frames;
    stats.hmacs = hub.hmacs_computed;
    stats.batches = hub.batches_sent;
    stats.batched_payloads = hub.coalesced_payloads;
  }
  for (const auto& transport : tcp_) {
    const auto tcp = transport->stats();
    stats.frames += tcp.frames_sent;
    stats.hmacs += tcp.hmacs_computed;
    stats.batches += tcp.batches_sent;
    stats.batched_payloads += tcp.frames_coalesced;
    stats.syscalls += tcp.writev_calls;
    stats.retransmitted += tcp.retransmitted;
  }
  const auto pool = pool_->stats();
  stats.tasks = pool.posted;
  std::uint64_t total = 0;
  std::uint64_t busiest = 0;
  for (const std::uint64_t executed : pool.executed) {
    total += executed;
    busiest = std::max(busiest, executed);
  }
  if (total > 0) {
    stats.lane_imbalance = static_cast<double>(busiest) / static_cast<double>(total) *
                           static_cast<double>(pool.executed.size());
  }
  return stats;
}

}  // namespace sintra::servicebench
