// Simulated network: per-link latency models, drops, partitions, crashes.
//
// Message complexity is the currency of the survey's consensus trade-offs
// (PBFT quadratic vs HotStuff linear; cross-shard phase counts), so the
// network counts every send and exposes the counters to benchmarks. With
// an attached obs::MetricsRegistry / obs::TraceLog (see obs/obs.h) it
// additionally records per-message-type counters, per-link traffic, and a
// structured trace of every send/deliver/drop/crash/partition event.
//
// Fault-injection semantics (tested in sim_test.cpp):
//  * A crash kills a node's timers, and a recovery restarts the node (runs
//    OnStart). Messages to/from a crashed node are dropped on delivery.
//  * A partition cut kills every in-flight message it severed: neither
//    Heal() nor a later cut that rejoins the link resurrects it.
#ifndef PBC_SIM_NETWORK_H_
#define PBC_SIM_NETWORK_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <unordered_map>
#include <vector>

#include "sim/simulator.h"

namespace pbc::obs {
class MetricsRegistry;
class TraceLog;
}  // namespace pbc::obs

namespace pbc::sim {

using NodeId = uint32_t;

/// \brief Base class for protocol messages. A concrete message derives
/// `Typed<Self>` and names itself with `static constexpr char kType[]`;
/// receivers dispatch with `As<T>`.
struct Message {
  virtual ~Message() = default;
  /// Stable type name used for dispatch, metrics and logging.
  virtual const char* type() const = 0;
  /// Approximate wire size in bytes (for bandwidth accounting).
  virtual size_t ByteSize() const { return 64; }
};

/// \brief Message base whose `type()` is `T::kType`. Every T returns the
/// same pointer, so the name doubles as an address tag for `As<T>`.
template <class T>
struct Typed : Message {
  const char* type() const final { return T::kType; }
};

/// \brief `msg` as a T when it is one, else nullptr. One pointer compare
/// on the type tag: no string compare, no RTTI.
template <class T>
const T* As(const Message& msg) {
  return msg.type() == T::kType ? static_cast<const T*>(&msg) : nullptr;
}

using MessagePtr = std::shared_ptr<const Message>;

/// \brief Latency of one link: `base + U(0, jitter)` microseconds.
struct LinkLatency {
  Time base_us = 500;
  Time jitter_us = 200;
};

/// \brief Per-node clock-rate deviation applied to every timer the node
/// arms (a "clock shim": the simulator's global clock stays authoritative;
/// only the node's *perception* of durations is skewed).
///
/// A node with `rate_ppm = +100000` has a clock running 10% fast, so a
/// requested 1 s timeout fires after ~0.909 s of simulated time; a
/// negative rate runs slow and stretches timeouts. `offset_us` is added on
/// top of the scaled delay (models a constant scheduling lag). Message
/// latencies are NOT affected — skew is a property of local timers, which
/// is exactly where consensus timeout assumptions live.
struct ClockSkew {
  int64_t rate_ppm = 0;  ///< parts-per-million deviation; clamped > -900000
  Time offset_us = 0;    ///< constant additive timer lag
};

class Network;

/// \brief Base class for simulated nodes (replicas, orderers, clients).
class Node {
 public:
  Node(NodeId id, Network* net);
  virtual ~Node() = default;

  NodeId id() const { return id_; }
  Network* network() const { return net_; }

  /// Called by Start() and again by every Recover(): safe to re-run.
  virtual void OnStart() {}
  /// Called on message delivery. Never invoked on crashed nodes.
  virtual void OnMessage(NodeId from, const MessagePtr& msg) = 0;

  /// Schedules `fn` after `delay`. The timer is cancelled if this node is
  /// crashed at firing time OR has crashed at any point since the timer
  /// was armed (a crash-recover cycle wipes pending timers).
  void SetTimer(Time delay, std::function<void()> fn);

 protected:
  /// Convenience wrappers over Network.
  void Send(NodeId to, MessagePtr msg);
  void Broadcast(const std::vector<NodeId>& to, MessagePtr msg);

 private:
  NodeId id_;
  Network* net_;
};

/// \brief Cumulative traffic counters.
struct NetworkStats {
  uint64_t messages_sent = 0;
  uint64_t messages_delivered = 0;
  uint64_t messages_dropped = 0;
  uint64_t bytes_sent = 0;
  bool operator==(const NetworkStats&) const = default;
};

/// \brief The simulated network fabric connecting nodes.
class Network {
 public:
  explicit Network(Simulator* simulator) : sim_(simulator) {}

  Simulator* simulator() const { return sim_; }
  Time now() const { return sim_->now(); }

  /// Registers a node; the network does not own it.
  void RegisterNode(Node* node);

  /// Invokes OnStart on every registered, non-crashed node.
  void Start();

  /// Default latency for links without an override.
  void SetDefaultLatency(LinkLatency latency) { default_latency_ = latency; }
  LinkLatency default_latency() const { return default_latency_; }

  /// Per-link latency override, applied to BOTH directions (links are
  /// symmetric by default — e.g. one WAN round trip between distant
  /// clusters costs the same either way).
  void SetLinkLatency(NodeId a, NodeId b, LinkLatency latency);

  /// One-direction override for deliberately asymmetric links (e.g. a
  /// saturated uplink). Overrides set here win over SetLinkLatency for
  /// that direction only.
  void SetDirectionalLinkLatency(NodeId from, NodeId to, LinkLatency latency);

  /// Fraction of messages silently dropped (both directions).
  void SetDropRate(double rate) { drop_rate_ = rate; }

  /// Skews every timer the node arms from now on (already-armed timers
  /// keep their original deadline). `{0, 0}` removes the skew.
  void SetClockSkew(NodeId id, ClockSkew skew);
  ClockSkew clock_skew(NodeId id) const {
    auto it = clock_skew_.find(id);
    return it == clock_skew_.end() ? ClockSkew{} : it->second;
  }
  /// The simulated-time delay after applying `id`'s clock skew to a
  /// requested timer delay. Exposed for tests; Node::SetTimer calls it.
  Time SkewedTimerDelay(NodeId id, Time delay) const;

  /// Effective latency model for one directed link (default, symmetric or
  /// directional override — whichever wins). Self-links are `{1, 0}`.
  /// Sending uses the same resolution. Read by adversaries and tests, and
  /// by a replica that bounds how long a block body can still be in
  /// flight behind its ref (Replica::EnsureBodyOrFetch).
  LinkLatency EffectiveLatency(NodeId from, NodeId to) const {
    return from == to ? LinkLatency{1, 0} : LatencyFor(from, to);
  }

  /// Sends a message; delivery is scheduled per the link's latency model.
  /// Self-sends are delivered with minimal latency.
  void Send(NodeId from, NodeId to, MessagePtr msg);

  /// --- Fault injection -------------------------------------------------

  /// Crash-stop: the node receives no further messages, and every timer it
  /// armed is cancelled for good (a later Recover() does not revive it).
  void Crash(NodeId id);
  /// Restarts a crashed node: it keeps its pre-crash state, and OnStart
  /// runs after the fault listener (if Start() has run).
  void Recover(NodeId id);
  bool IsCrashed(NodeId id) const { return crashed_.count(id) > 0; }

  /// Observer fired on every crash-state *transition* (crashed=true from
  /// Crash(), false from Recover()), after the network's own bookkeeping.
  /// This is the single choke point through which process faults reach
  /// co-located state — the durable-storage harness uses it to power-fail
  /// a node's sim::Fs files and to run crash recovery on Recover(), so
  /// adversary-injected crashes (which bypass the nemesis schedule's
  /// Apply) hit the disk exactly like scheduled ones.
  using FaultListener = std::function<void(NodeId, bool crashed)>;
  void SetFaultListener(FaultListener listener) {
    fault_listener_ = std::move(listener);
  }

  /// Number of times the node has crashed; timers armed in an older epoch
  /// never fire.
  uint64_t CrashEpoch(NodeId id) const {
    auto it = crash_epoch_.find(id);
    return it == crash_epoch_.end() ? 0 : it->second;
  }

  /// Partitions the network into groups; messages across groups — whether
  /// sent later or already in flight — are dropped until Heal(). Nodes
  /// absent from all groups are isolated.
  void Partition(const std::vector<std::vector<NodeId>>& groups);
  void Heal();

  const NetworkStats& stats() const { return stats_; }
  void ResetStats() { stats_ = NetworkStats{}; }

  /// Attaches optional observability sinks (either may be nullptr). The
  /// network never reads them for protocol decisions, so attaching cannot
  /// change a run's behavior.
  void AttachObs(obs::MetricsRegistry* metrics, obs::TraceLog* trace) {
    metrics_ = metrics;
    trace_ = trace;
  }
  obs::MetricsRegistry* metrics() const { return metrics_; }
  obs::TraceLog* trace() const { return trace_; }

  size_t num_nodes() const { return nodes_.size(); }
  Node* node(NodeId id) const {
    auto it = nodes_.find(id);
    return it == nodes_.end() ? nullptr : it->second;
  }

 private:
  LinkLatency LatencyFor(NodeId from, NodeId to) const;
  /// True when `from`/`to` are in different groups of `partition` (nodes
  /// absent from every group are isolated).
  static bool CrossGroup(const std::unordered_map<NodeId, int>& partition,
                         NodeId from, NodeId to);
  /// Counts and traces a dropped `msg` of `bytes` (its ByteSize()).
  void CountDrop(NodeId from, NodeId to, const Message& msg, size_t bytes,
                 const char* reason);

  Simulator* sim_;
  // Ordered: Start() walks this map to fire OnStart, so iteration order
  // reaches message-send order and must not depend on addresses.
  std::map<NodeId, Node*> nodes_;
  std::set<NodeId> crashed_;
  std::unordered_map<NodeId, uint64_t> crash_epoch_;
  LinkLatency default_latency_;
  std::unordered_map<uint64_t, LinkLatency> link_latency_;  // (from<<32)|to
  double drop_rate_ = 0.0;
  // Ordered map: never iterated today, but keep it address-independent so
  // a future walk (e.g. a skew dump) cannot introduce nondeterminism.
  std::map<NodeId, ClockSkew> clock_skew_;
  bool started_ = false;
  bool partitioned_ = false;  // cuts_.back() is live until Heal()
  // Every Partition() layout (node -> group), oldest first: a delivery
  // tests each cut made since its send.
  std::vector<std::unordered_map<NodeId, int>> cuts_;
  FaultListener fault_listener_;
  NetworkStats stats_;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::TraceLog* trace_ = nullptr;

  friend class Node;  // timers consult crash epochs
};

}  // namespace pbc::sim

#endif  // PBC_SIM_NETWORK_H_
