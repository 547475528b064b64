#include "shard/sharper.h"

namespace pbc::shard {

namespace {

struct SpProposeMsg : sim::Typed<SpProposeMsg> {
  txn::Transaction txn;
  static constexpr char kType[] = "sp-propose";
  size_t ByteSize() const override { return 96 + txn.ops.size() * 48; }
};

struct SpAckMsg : sim::Typed<SpAckMsg> {
  txn::TxnId id = 0;
  ShardId from = 0;
  bool ok = false;
  static constexpr char kType[] = "sp-ack";
};

txn::Transaction Marker(ShardCluster* cluster, const std::string& tag) {
  txn::Transaction m;
  m.id = cluster->NextMarkerId();
  m.ops.push_back(txn::Op::Write("sp/" + tag, ""));
  return m;
}

}  // namespace

class SharperGateway : public sim::Node {
 public:
  SharperGateway(sim::NodeId id, sim::Network* net, SharperSystem* system,
                 ShardId shard)
      : sim::Node(id, net), system_(system), shard_(shard) {}

  void OnMessage(sim::NodeId, const sim::MessagePtr& msg) override {
    if (const auto* m = sim::As<SpProposeMsg>(*msg)) {
      system_->OnPropose(shard_, m->txn);
    } else if (const auto* a = sim::As<SpAckMsg>(*msg)) {
      system_->OnAck(shard_, a->id, a->from, a->ok);
    }
  }

 private:
  SharperSystem* system_;
  ShardId shard_;
};

SharperSystem::SharperSystem(sim::Network* net,
                             crypto::KeyRegistry* registry,
                             uint32_t num_shards, size_t replicas_per_shard,
                             consensus::ClusterConfig cluster_config,
                             sim::NodeId base_node_id)
    : net_(net), num_shards_(num_shards), cross_(num_shards) {
  sim::NodeId next = base_node_id;
  for (uint32_t s = 0; s < num_shards; ++s) {
    shards_.push_back(std::make_unique<ShardCluster>(
        s, net, registry, replicas_per_shard, next, cluster_config));
    gateways_.push_back(std::make_unique<SharperGateway>(
        shards_.back()->gateway_id(), net, this, s));
    next += static_cast<sim::NodeId>(replicas_per_shard + 1);
  }
}

SharperSystem::~SharperSystem() = default;

void SharperSystem::Submit(txn::Transaction txn) {
  auto involved = ShardsOf(txn, num_shards_);
  if (involved.size() == 1) {
    ShardId s = involved[0];
    ShardCluster* shard = shards_[s].get();
    shard->OrderAndThen(txn, [this, shard](const txn::Transaction& t) {
      for (const auto& k : t.DeclaredWrites()) {
        if (shard->locks()->IsLocked(k)) {
          ++stats_.intra_aborted;
          if (listener_) listener_(t.id, false);
          return;
        }
      }
      if (!LocalPreconditionsHold(t, *shard->store())) {
        ++stats_.intra_aborted;
        if (listener_) listener_(t.id, false);
        return;
      }
      shard->Apply(t);
      ++stats_.intra_committed;
      if (listener_) listener_(t.id, true);
    });
    return;
  }
  // Flattened cross-shard: the initiator (lowest involved shard) fans the
  // proposal out to every involved cluster, itself included.
  ShardId initiator = involved[0];
  for (ShardId s : involved) {
    auto msg = std::make_shared<SpProposeMsg>();
    msg->txn = txn;
    net_->Send(shards_[initiator]->gateway_id(), shards_[s]->gateway_id(),
               msg);
  }
}

void SharperSystem::OnPropose(ShardId s, const txn::Transaction& txn) {
  auto& state = cross_[s][txn.id];
  if (state.prepared_locally) return;  // duplicate
  state.txn = txn;
  state.involved = ShardsOf(txn, num_shards_);

  ShardCluster* shard = shards_[s].get();
  txn::TxnId id = txn.id;
  shard->OrderAndThen(
      Marker(shard, "prep/" + std::to_string(id) + "/" + std::to_string(s)),
      [this, s, id](const txn::Transaction&) {
        ShardCluster* shard = shards_[s].get();
        auto& state = cross_[s][id];
        state.prepared_locally = true;
        txn::Transaction local =
            ProjectToShard(state.txn, s, num_shards_);
        bool ok = true;
        for (const auto& k : local.DeclaredWrites()) {
          if (!shard->locks()->LockExclusive(k, id).ok()) ok = false;
        }
        if (ok) {
          for (const auto& k : local.DeclaredReads()) {
            if (!shard->locks()->LockShared(k, id).ok()) ok = false;
          }
        }
        if (ok) ok = LocalPreconditionsHold(local, *shard->store());
        if (!ok) shard->locks()->UnlockAll(id);
        state.local_ok = ok;
        // Flattened exchange: tell every involved cluster directly.
        for (ShardId peer : state.involved) {
          auto ack = std::make_shared<SpAckMsg>();
          ack->id = id;
          ack->from = s;
          ack->ok = ok;
          net_->Send(shard->gateway_id(), shards_[peer]->gateway_id(), ack);
        }
      });
}

void SharperSystem::OnAck(ShardId s, txn::TxnId id, ShardId from, bool ok) {
  auto& state = cross_[s][id];
  state.acks[from] = ok;
  MaybeFinish(s, id);
}

void SharperSystem::MaybeFinish(ShardId s, txn::TxnId id) {
  auto& state = cross_[s][id];
  if (state.done || !state.prepared_locally) return;
  if (state.involved.empty()) return;  // acks before the proposal arrived
  for (ShardId peer : state.involved) {
    if (state.acks.count(peer) == 0) return;
  }
  bool commit = true;
  for (const auto& [peer, ok] : state.acks) commit &= ok;
  state.done = true;

  ShardCluster* shard = shards_[s].get();
  bool is_initiator = state.involved[0] == s;
  shard->OrderAndThen(
      Marker(shard, std::string(commit ? "commit/" : "abort/") +
                        std::to_string(id) + "/" + std::to_string(s)),
      [this, s, id, commit, is_initiator](const txn::Transaction&) {
        ShardCluster* shard = shards_[s].get();
        auto& state = cross_[s][id];
        if (commit) {
          shard->Apply(ProjectToShard(state.txn, s, num_shards_));
        }
        shard->locks()->UnlockAll(id);
        if (shard_outcome_listener_) shard_outcome_listener_(s, id, commit);
        if (is_initiator) {
          if (commit) {
            ++stats_.cross_committed;
          } else {
            ++stats_.cross_aborted;
          }
          if (listener_) listener_(id, commit);
        }
      });
}

int64_t SharperSystem::TotalBalance() const {
  int64_t total = 0;
  for (const auto& shard : shards_) {
    shard->store()->ForEachLatest(
        [&](const store::Key&, const store::VersionedValue& v) {
          total += txn::DecodeInt(v.value);
        });
  }
  return total;
}

}  // namespace pbc::shard
