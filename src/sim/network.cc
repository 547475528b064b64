#include "sim/network.h"

#include <string>

#include "obs/obs.h"

namespace pbc::sim {

Node::Node(NodeId id, Network* net) : id_(id), net_(net) {
  net_->RegisterNode(this);
}

void Node::SetTimer(Time delay, std::function<void()> fn) {
  Network* net = net_;
  NodeId id = id_;
  // Capture the crash epoch at arming time: a timer armed before a crash
  // must not fire after a crash-recover cycle (the node's pre-crash
  // schedule died with it).
  uint64_t epoch = net_->CrashEpoch(id_);
  delay = net_->SkewedTimerDelay(id_, delay);
  net_->simulator()->Schedule(delay, [net, id, epoch, fn = std::move(fn)] {
    if (net->IsCrashed(id) || net->CrashEpoch(id) != epoch) {
      PBC_OBS_TRACE(net->trace(), net->now(), obs::TraceKind::kTimerCancelled,
                    id, id, "stale-epoch", epoch);
      return;
    }
    fn();
  });
}

void Node::Send(NodeId to, MessagePtr msg) {
  net_->Send(id_, to, std::move(msg));
}

void Node::Broadcast(const std::vector<NodeId>& to, MessagePtr msg) {
  for (NodeId t : to) net_->Send(id_, t, msg);
}

void Network::RegisterNode(Node* node) { nodes_[node->id()] = node; }

void Network::Start() {
  started_ = true;
  for (auto& [id, node] : nodes_) {
    if (!IsCrashed(id)) node->OnStart();
  }
}

void Network::SetLinkLatency(NodeId a, NodeId b, LinkLatency latency) {
  SetDirectionalLinkLatency(a, b, latency);
  SetDirectionalLinkLatency(b, a, latency);
}

void Network::SetDirectionalLinkLatency(NodeId from, NodeId to,
                                        LinkLatency latency) {
  link_latency_[(static_cast<uint64_t>(from) << 32) | to] = latency;
}

void Network::SetClockSkew(NodeId id, ClockSkew skew) {
  // A clock >= 90% fast would collapse timeouts toward zero and can spin
  // the simulator; clamp to keep skewed runs terminating.
  constexpr int64_t kMinRatePpm = -900'000;
  constexpr int64_t kMaxRatePpm = 9'000'000;
  if (skew.rate_ppm < kMinRatePpm) skew.rate_ppm = kMinRatePpm;
  if (skew.rate_ppm > kMaxRatePpm) skew.rate_ppm = kMaxRatePpm;
  if (skew.rate_ppm == 0 && skew.offset_us == 0) {
    clock_skew_.erase(id);
  } else {
    clock_skew_[id] = skew;
  }
}

Time Network::SkewedTimerDelay(NodeId id, Time delay) const {
  auto it = clock_skew_.find(id);
  if (it == clock_skew_.end()) return delay;
  const ClockSkew& skew = it->second;
  Time scaled = delay;
  if (skew.rate_ppm != 0) {
    // A fast clock (positive ppm) reaches the requested duration early:
    // real delay = requested * 1e6 / (1e6 + ppm).
    scaled = static_cast<Time>(
        delay * 1'000'000ULL /
        static_cast<uint64_t>(1'000'000LL + skew.rate_ppm));
    if (delay > 0 && scaled == 0) scaled = 1;
  }
  return scaled + skew.offset_us;
}

LinkLatency Network::LatencyFor(NodeId from, NodeId to) const {
  auto it = link_latency_.find((static_cast<uint64_t>(from) << 32) | to);
  if (it != link_latency_.end()) return it->second;
  return default_latency_;
}

bool Network::CrossGroup(const std::unordered_map<NodeId, int>& partition,
                         NodeId from, NodeId to) {
  if (from == to) return false;
  auto fi = partition.find(from);
  auto ti = partition.find(to);
  // Nodes not listed in any group are isolated.
  if (fi == partition.end() || ti == partition.end()) return true;
  return fi->second != ti->second;
}

void Network::CountDrop(NodeId from, NodeId to, const Message& msg,
                        size_t bytes, const char* reason) {
  ++stats_.messages_dropped;
  PBC_OBS_COUNT(metrics_, "net.dropped", 1);
  PBC_OBS_COUNT(metrics_, std::string("net.dropped.") + reason, 1);
  PBC_OBS_TRACE(trace_, now(), obs::TraceKind::kDrop, from, to, msg.type(),
                bytes);
}

void Network::Crash(NodeId id) {
  if (crashed_.insert(id).second) {
    ++crash_epoch_[id];
    PBC_OBS_COUNT(metrics_, "net.crashes", 1);
    PBC_OBS_TRACE(trace_, now(), obs::TraceKind::kCrash, id, id, "",
                  crash_epoch_[id]);
    if (fault_listener_) fault_listener_(id, /*crashed=*/true);
  }
}

void Network::Recover(NodeId id) {
  if (crashed_.erase(id) > 0) {
    PBC_OBS_COUNT(metrics_, "net.recoveries", 1);
    PBC_OBS_TRACE(trace_, now(), obs::TraceKind::kRecover, id, id, "",
                  CrashEpoch(id));
    if (fault_listener_) fault_listener_(id, /*crashed=*/false);
    if (Node* n = node(id); started_ && n != nullptr) n->OnStart();
  }
}

void Network::Send(NodeId from, NodeId to, MessagePtr msg) {
  // A payload's size walks its txns: take it once per send.
  const size_t bytes = msg->ByteSize();
  ++stats_.messages_sent;
  stats_.bytes_sent += bytes;
  PBC_OBS_COUNT(metrics_, "net.sent", 1);
  PBC_OBS_COUNT(metrics_, "net.bytes_sent", bytes);
  PBC_OBS_COUNT(metrics_, std::string("net.sent.") + msg->type(), 1);
  PBC_OBS_COUNT(metrics_,
                "net.link." + std::to_string(from) + "->" +
                    std::to_string(to) + ".sent",
                1);
  PBC_OBS_TRACE(trace_, now(), obs::TraceKind::kSend, from, to, msg->type(),
                bytes);

  // A link severed by an active partition carries nothing: drop at send
  // time so a later Heal() cannot resurrect the message.
  if (partitioned_ && CrossGroup(cuts_.back(), from, to)) {
    CountDrop(from, to, *msg, bytes, "partition");
    return;
  }

  if (from != to && drop_rate_ > 0.0 && sim_->rng()->Bernoulli(drop_rate_)) {
    CountDrop(from, to, *msg, bytes, "loss");
    return;
  }

  LinkLatency lat = from == to ? LinkLatency{1, 0} : LatencyFor(from, to);
  Time jitter = lat.jitter_us == 0
                    ? 0
                    : sim_->rng()->NextU64(lat.jitter_us + 1);
  Time delay = lat.base_us + jitter;

  size_t cuts_at_send = cuts_.size();
  sim_->Schedule(delay, [this, from, to, cuts_at_send, bytes,
                         msg = std::move(msg)] {
    // Any cut since the send that severed this link killed the message on
    // the wire. (A partition live at send time dropped it in Send.)
    for (size_t i = cuts_at_send; i < cuts_.size(); ++i) {
      if (CrossGroup(cuts_[i], from, to)) {
        CountDrop(from, to, *msg, bytes, "partition");
        return;
      }
    }
    if (IsCrashed(to) || IsCrashed(from)) {
      CountDrop(from, to, *msg, bytes, "crash");
      return;
    }
    auto it = nodes_.find(to);
    if (it == nodes_.end()) {
      CountDrop(from, to, *msg, bytes, "unknown-node");
      return;
    }
    ++stats_.messages_delivered;
    PBC_OBS_COUNT(metrics_, "net.delivered", 1);
    PBC_OBS_TRACE(trace_, now(), obs::TraceKind::kDeliver, from, to,
                  msg->type(), bytes);
    it->second->OnMessage(from, msg);
  });
}

void Network::Partition(const std::vector<std::vector<NodeId>>& groups) {
  std::unordered_map<NodeId, int>& cut = cuts_.emplace_back();
  int group_index = 0;
  for (const auto& group : groups) {
    for (NodeId id : group) cut[id] = group_index;
    ++group_index;
  }
  partitioned_ = true;
  PBC_OBS_COUNT(metrics_, "net.partitions", 1);
  PBC_OBS_TRACE(trace_, now(), obs::TraceKind::kPartition, 0, 0, "",
                groups.size());
}

void Network::Heal() {
  partitioned_ = false;
  PBC_OBS_COUNT(metrics_, "net.heals", 1);
  PBC_OBS_TRACE(trace_, now(), obs::TraceKind::kHeal, 0, 0, "", 0);
}

}  // namespace pbc::sim
