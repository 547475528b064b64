#include "shard/sharper.h"

namespace pbc::shard {

namespace {

struct SpProposeMsg : sim::Typed<SpProposeMsg> {
  txn::Transaction txn;
  static constexpr char kType[] = "sp-propose";
  size_t ByteSize() const override { return 96 + txn::EncodedSize(txn); }
};

struct SpAckMsg : sim::Typed<SpAckMsg> {
  txn::TxnId id = 0;
  ShardId from = 0;
  bool ok = false;
  static constexpr char kType[] = "sp-ack";
};

}  // namespace

SharperSystem::SharperSystem(sim::Network* net,
                             crypto::KeyRegistry* registry,
                             uint32_t num_shards, size_t replicas_per_shard,
                             consensus::ClusterConfig cluster_config,
                             sim::NodeId base_node_id)
    : ShardedSystem(net, registry, num_shards, /*num_coordinators=*/0,
                    replicas_per_shard, std::move(cluster_config),
                    base_node_id),
      acks_(num_shards) {}

void SharperSystem::SubmitCross(txn::Transaction txn,
                                std::vector<ShardId> involved) {
  ShardId initiator = involved[0];
  for (ShardId s : involved) {
    auto msg = std::make_shared<SpProposeMsg>();
    msg->txn = txn;
    net_->Send(shard(initiator)->gateway_id(), shard(s)->gateway_id(), msg);
  }
}

void SharperSystem::OnShardMessage(ShardId s, const sim::MessagePtr& msg) {
  if (const auto* m = sim::As<SpProposeMsg>(*msg)) {
    OnPropose(s, m->txn);
  } else if (const auto* a = sim::As<SpAckMsg>(*msg)) {
    OnAck(s, a->id, a->from, a->ok);
  }
}

void SharperSystem::OnPropose(ShardId s, const txn::Transaction& txn) {
  ShardCluster* sc = shard(s);
  sc->OrderAndThen(
      sc->Marker("sp/prep/" + std::to_string(txn.id) + "/" +
                 std::to_string(s)),
      [this, s, txn](const txn::Transaction&) {
        bool ok = Prepare(s, txn);
        // Flattened exchange: tell every involved cluster directly.
        for (ShardId peer : ShardsOf(txn, num_shards())) {
          auto ack = std::make_shared<SpAckMsg>();
          ack->id = txn.id;
          ack->from = s;
          ack->ok = ok;
          net_->Send(shard(s)->gateway_id(), shard(peer)->gateway_id(), ack);
        }
      });
}

void SharperSystem::OnAck(ShardId s, txn::TxnId id, ShardId from, bool ok) {
  auto& acks = acks_[s][id];
  acks[from] = ok;
  // Peers' acks may arrive before this shard has prepared; its own ack,
  // sent once it has, always comes after.
  const txn::Transaction* txn = Prepared(s, id);
  if (txn == nullptr) return;
  std::vector<ShardId> involved = ShardsOf(*txn, num_shards());
  if (acks.size() < involved.size()) return;
  bool commit = true;
  for (const auto& [peer, peer_ok] : acks) commit &= peer_ok;
  acks_[s].erase(id);

  bool is_initiator = involved[0] == s;
  ShardCluster* sc = shard(s);
  sc->OrderAndThen(
      sc->Marker(std::string(commit ? "sp/commit/" : "sp/abort/") +
                 std::to_string(id) + "/" + std::to_string(s)),
      [this, s, id, commit, is_initiator](const txn::Transaction&) {
        Decide(s, id, commit);
        if (is_initiator) FinishCross(id, commit);
      });
}

}  // namespace pbc::shard
