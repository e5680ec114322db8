// E18 service benchmark: one in-process deployment of the service.
//
// Endpoints 0..3 are NetworkedNode hosts, each running a Party with an
// app::Replica; endpoint 4 is the ServiceClient's NetworkedNode.  All
// five share one transport: a LoopbackHub driven by the pump thread, or
// five TcpTransports on 127.0.0.1 whose reactor threads move the bytes.
// Every call the pump makes into a layer goes through the Ledger.
#pragma once

#include <condition_variable>
#include <memory>
#include <mutex>
#include <vector>

#include "common/executor.hpp"
#include "net/transport/loopback.hpp"
#include "net/transport/networked_node.hpp"
#include "net/transport/tcp_transport.hpp"
#include "protocols/harness.hpp"
#include "service_bench.hpp"

namespace sintra::servicebench {

class Cluster {
 public:
  static constexpr int kServers = 4;
  static constexpr int kFaults = 1;
  static constexpr int kClientId = kServers;  ///< the ServiceClient's endpoint
  static constexpr int kEndpoints = kServers + 1;

  /// Deals keys, wires the endpoints and (on TCP) waits until every pair
  /// is connected.  Throws std::runtime_error if TCP does not connect.
  ///
  /// The deployment is the same in every run: keys, party and network
  /// randomness come from one fixed seed, and only the requests vary with
  /// the workload seed.  A deployment is dealt once and then serves many
  /// request streams; fixing it keeps runs of different seeds comparable.
  Cluster(const WorkloadSpec& spec, Ledger& ledger, app::ServiceClient::ReplyFn on_reply);
  ~Cluster();
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  [[nodiscard]] app::ServiceClient& client() { return *client_; }
  [[nodiscard]] const adversary::Deployment& deployment() const { return deployment_; }

  /// One pump iteration: poll the client and every replica node, then
  /// deliver one hub frame.  True if anything moved.
  bool pump();
  /// No-progress path: wait for executor progress, poll again, and when
  /// still quiet run the hub's ack/retransmit tick.
  bool settle();

  /// Each replica's executed_count; call with the pump quiet.
  [[nodiscard]] std::vector<std::uint64_t> executed_counts();

  /// Transport- and node-level counters, summed over endpoints.
  struct LayerStats {
    std::uint64_t dispatched = 0;     ///< replica-node messages dispatched
    std::uint64_t dropped_inbox = 0;  ///< all nodes
    std::uint64_t frames = 0;         ///< frames on the wire, all types
    std::uint64_t hmacs = 0;
    std::uint64_t batches = 0;
    std::uint64_t batched_payloads = 0;
    std::uint64_t syscalls = 0;       ///< TCP sendmsg calls
    std::uint64_t retransmitted = 0;  ///< TCP link-level resends
    std::uint64_t tasks = 0;          ///< executor tasks posted
    double lane_imbalance = 1.0;      ///< busiest lane share x lanes (1 = even)
  };
  [[nodiscard]] LayerStats layer_stats() const;

 private:
  void wire_loopback();
  void wire_tcp();
  [[nodiscard]] Bytes link_key(int a, int b) const;
  void send(int from, int peer, std::vector<net::transport::GroupPayload> payloads);
  void receive(int to, int from, std::uint32_t group, BytesView payload);

  /// Waits until an executor finishes a batch (or 1 ms passes), so the
  /// pump flushes what one executor produced while others still run.
  void wait_for_executors();

  const WorkloadSpec& spec_;
  Ledger& ledger_;
  std::mutex exec_mutex_;
  std::condition_variable exec_cv_;
  std::uint64_t exec_batches_ = 0;  ///< executor batches finished (exec_mutex_)
  std::uint64_t exec_seen_ = 0;     ///< pump's last look at exec_batches_
  adversary::Deployment deployment_;
  std::unique_ptr<net::transport::LoopbackHub> hub_;
  std::vector<std::unique_ptr<net::transport::NetworkedNode>> nodes_;
  std::unique_ptr<common::ExecutorPool> pool_;
  std::vector<std::unique_ptr<protocols::HostedParty<app::Replica>>> replicas_;
  std::unique_ptr<app::ServiceClient> client_;
  /// Declared last: reactor threads call into the nodes, so the
  /// destructor stops them before anything else goes.
  std::vector<std::unique_ptr<net::transport::TcpTransport>> tcp_;
};

}  // namespace sintra::servicebench
