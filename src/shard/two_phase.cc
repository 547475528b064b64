#include "shard/two_phase.h"

#include "obs/obs.h"

namespace pbc::shard {

namespace {

struct CsPrepareMsg : sim::Typed<CsPrepareMsg> {
  txn::Transaction txn;
  uint32_t coordinator = 0;
  static constexpr char kType[] = "2pc-prepare";
  size_t ByteSize() const override { return 96 + txn::EncodedSize(txn); }
};

struct CsVoteMsg : sim::Typed<CsVoteMsg> {
  txn::TxnId id = 0;
  ShardId shard = 0;
  bool ok = false;
  static constexpr char kType[] = "2pc-vote";
};

struct CsDecideMsg : sim::Typed<CsDecideMsg> {
  txn::TxnId id = 0;
  bool commit = false;
  static constexpr char kType[] = "2pc-decide";
};

}  // namespace

TwoPhaseConfig TwoPhaseConfig::Ahl(uint32_t num_shards,
                                   size_t replicas_per_shard) {
  TwoPhaseConfig c;
  c.num_shards = num_shards;
  c.replicas_per_shard = replicas_per_shard;
  c.coordinator_parent = {-1};
  c.shard_coordinator.assign(num_shards, 0);
  return c;
}

TwoPhaseConfig TwoPhaseConfig::Saguaro(uint32_t num_shards, uint32_t fanout,
                                       size_t replicas_per_shard) {
  TwoPhaseConfig c;
  c.num_shards = num_shards;
  c.replicas_per_shard = replicas_per_shard;
  // Coordinator 0 = cloud root; one fog coordinator per `fanout` shards.
  uint32_t fogs = (num_shards + fanout - 1) / fanout;
  c.coordinator_parent.assign(1 + fogs, 0);
  c.coordinator_parent[0] = -1;
  c.shard_coordinator.resize(num_shards);
  for (uint32_t s = 0; s < num_shards; ++s) {
    c.shard_coordinator[s] = 1 + s / fanout;
  }
  return c;
}

TwoPhaseShardSystem::TwoPhaseShardSystem(sim::Network* net,
                                         crypto::KeyRegistry* registry,
                                         TwoPhaseConfig config,
                                         sim::NodeId base_node_id)
    : ShardedSystem(net, registry, config.num_shards,
                    static_cast<uint32_t>(config.coordinator_parent.size()),
                    config.replicas_per_shard, config.cluster, base_node_id),
      config_(std::move(config)) {
  for (uint32_t c = 0; c < config_.coordinator_parent.size(); ++c) {
    coordinator(c)->set_handler([this, c](const sim::MessagePtr& msg) {
      if (const auto* v = sim::As<CsVoteMsg>(*msg)) {
        CoordinatorOnVote(c, v->id, v->shard, v->ok);
      }
    });
  }
}

uint32_t TwoPhaseShardSystem::LcaCoordinator(
    const std::vector<ShardId>& shards) const {
  const auto& parent = config_.coordinator_parent;
  auto depth = [&](uint32_t c) {
    uint32_t d = 0;
    while (parent[c] >= 0) {
      c = static_cast<uint32_t>(parent[c]);
      ++d;
    }
    return d;
  };
  uint32_t lca = config_.shard_coordinator[shards[0]];
  for (size_t i = 1; i < shards.size(); ++i) {
    uint32_t a = lca;
    uint32_t b = config_.shard_coordinator[shards[i]];
    uint32_t da = depth(a), db = depth(b);
    while (da > db) {
      a = static_cast<uint32_t>(parent[a]);
      --da;
    }
    while (db > da) {
      b = static_cast<uint32_t>(parent[b]);
      --db;
    }
    while (a != b) {
      a = static_cast<uint32_t>(parent[a]);
      b = static_cast<uint32_t>(parent[b]);
    }
    lca = a;
  }
  return lca;
}

void TwoPhaseShardSystem::OnShardMessage(ShardId s,
                                         const sim::MessagePtr& msg) {
  if (const auto* m = sim::As<CsPrepareMsg>(*msg)) {
    ShardOnPrepare(s, m->txn, m->coordinator);
  } else if (const auto* d = sim::As<CsDecideMsg>(*msg)) {
    ShardOnDecide(s, d->id, d->commit);
  }
}

void TwoPhaseShardSystem::SubmitCross(txn::Transaction txn,
                                      std::vector<ShardId> involved) {
  PBC_OBS_COUNT(net_->metrics(), "shard.2pc.begin_rounds", 1);
  uint32_t coord = LcaCoordinator(involved);
  txn::TxnId id = txn.id;
  cross_[id] = CrossTxn{std::move(txn), std::move(involved), {}, false};

  ShardCluster* cc = coordinator(coord);
  cc->OrderAndThen(
      cc->Marker("2pc/begin/" + std::to_string(id)),
      [this, coord, id](const txn::Transaction&) {
        auto it = cross_.find(id);
        if (it == cross_.end()) return;
        for (ShardId s : it->second.involved) {
          auto msg = std::make_shared<CsPrepareMsg>();
          msg->txn = it->second.txn;
          msg->coordinator = coord;
          net_->Send(coordinator(coord)->gateway_id(), shard(s)->gateway_id(),
                     std::move(msg));
        }
      });
}

void TwoPhaseShardSystem::ShardOnPrepare(ShardId s,
                                         const txn::Transaction& txn,
                                         uint32_t coord) {
  PBC_OBS_COUNT(net_->metrics(), "shard.2pc.prepare_rounds", 1);
  ShardCluster* sc = shard(s);
  sc->OrderAndThen(
      sc->Marker("2pc/prep/" + std::to_string(txn.id) + "/" +
                 std::to_string(s)),
      [this, s, txn, coord](const txn::Transaction&) {
        auto vote = std::make_shared<CsVoteMsg>();
        vote->id = txn.id;
        vote->shard = s;
        vote->ok = Prepare(s, txn);
        net_->Send(shard(s)->gateway_id(), coordinator(coord)->gateway_id(),
                   std::move(vote));
      });
}

void TwoPhaseShardSystem::CoordinatorOnVote(uint32_t coord, txn::TxnId id,
                                            ShardId s, bool ok) {
  auto it = cross_.find(id);
  if (it == cross_.end() || it->second.decided) return;
  CrossTxn& state = it->second;
  state.votes[s] = ok;
  if (state.votes.size() < state.involved.size()) return;

  bool commit = true;
  for (const auto& [shard_id, vote] : state.votes) commit &= vote;
  state.decided = true;
  PBC_OBS_COUNT(net_->metrics(), "shard.2pc.decide_rounds", 1);

  ShardCluster* cc = coordinator(coord);
  cc->OrderAndThen(
      cc->Marker("2pc/decide/" + std::to_string(id)),
      [this, coord, id, commit](const txn::Transaction&) {
        auto it = cross_.find(id);
        if (it == cross_.end()) return;
        for (ShardId s : it->second.involved) {
          auto msg = std::make_shared<CsDecideMsg>();
          msg->id = id;
          msg->commit = commit;
          net_->Send(coordinator(coord)->gateway_id(), shard(s)->gateway_id(),
                     std::move(msg));
        }
        FinishCross(id, commit);
        cross_.erase(it);
      });
}

void TwoPhaseShardSystem::ShardOnDecide(ShardId s, txn::TxnId id,
                                        bool commit) {
  ShardCluster* sc = shard(s);
  sc->OrderAndThen(
      sc->Marker("2pc/dec/" + std::to_string(id) + "/" + std::to_string(s)),
      [this, s, id, commit](const txn::Transaction&) {
        Decide(s, id, commit);
      });
}

}  // namespace pbc::shard
