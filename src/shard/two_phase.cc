#include "shard/two_phase.h"

#include "obs/metrics.h"
#include "obs/obs.h"

namespace pbc::shard {

void ExportShardStats(const ShardStats& stats, obs::MetricsRegistry* m) {
  if (m == nullptr) return;
  m->GetCounter("shard.intra_committed")->Add(stats.intra_committed);
  m->GetCounter("shard.intra_aborted")->Add(stats.intra_aborted);
  m->GetCounter("shard.cross_committed")->Add(stats.cross_committed);
  m->GetCounter("shard.cross_aborted")->Add(stats.cross_aborted);
}

namespace {

struct CsPrepareMsg : sim::Typed<CsPrepareMsg> {
  txn::Transaction txn;
  uint32_t coordinator = 0;
  static constexpr char kType[] = "2pc-prepare";
  size_t ByteSize() const override { return 96 + txn.ops.size() * 48; }
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

txn::Transaction Marker(ShardCluster* cluster, const std::string& tag) {
  txn::Transaction m;
  m.id = cluster->NextMarkerId();
  m.ops.push_back(txn::Op::Write("2pc/" + tag, ""));
  return m;
}

}  // namespace

/// Gateway node: receives cross-shard protocol messages and forwards them
/// to the owning system with its role attached.
class TwoPhaseGateway : public sim::Node {
 public:
  enum class Role { kShard, kCoordinator };

  TwoPhaseGateway(sim::NodeId id, sim::Network* net,
                  TwoPhaseShardSystem* system, Role role, uint32_t index)
      : sim::Node(id, net), system_(system), role_(role), index_(index) {}

  void OnMessage(sim::NodeId, const sim::MessagePtr& msg) override {
    if (role_ == Role::kShard) {
      if (const auto* m = sim::As<CsPrepareMsg>(*msg)) {
        system_->ShardOnPrepare(index_, m->txn, m->coordinator);
      } else if (const auto* d = sim::As<CsDecideMsg>(*msg)) {
        system_->ShardOnDecide(index_, d->id, d->commit);
      }
    } else if (const auto* v = sim::As<CsVoteMsg>(*msg)) {
      system_->CoordinatorOnVote(index_, v->id, v->shard, v->ok);
    }
  }

 private:
  TwoPhaseShardSystem* system_;
  Role role_;
  uint32_t index_;
};

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
    : config_(std::move(config)), net_(net) {
  sim::NodeId next = base_node_id;
  size_t stride = config_.replicas_per_shard + 1;
  for (uint32_t s = 0; s < config_.num_shards; ++s) {
    shards_.push_back(std::make_unique<ShardCluster>(
        s, net, registry, config_.replicas_per_shard, next,
        config_.cluster));
    gateways_.push_back(std::make_unique<TwoPhaseGateway>(
        shards_.back()->gateway_id(), net, this,
        TwoPhaseGateway::Role::kShard, s));
    next += static_cast<sim::NodeId>(stride);
  }
  for (uint32_t c = 0; c < config_.coordinator_parent.size(); ++c) {
    coordinators_.push_back(std::make_unique<ShardCluster>(
        1000 + c, net, registry, config_.replicas_per_shard, next,
        config_.cluster));
    gateways_.push_back(std::make_unique<TwoPhaseGateway>(
        coordinators_.back()->gateway_id(), net, this,
        TwoPhaseGateway::Role::kCoordinator, c));
    next += static_cast<sim::NodeId>(stride);
  }
}

TwoPhaseShardSystem::~TwoPhaseShardSystem() = default;

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

void TwoPhaseShardSystem::Submit(txn::Transaction txn) {
  auto involved = ShardsOf(txn, config_.num_shards);
  if (involved.size() == 1) {
    ShardId s = involved[0];
    ShardCluster* shard = shards_[s].get();
    shard->OrderAndThen(txn, [this, s, shard](const txn::Transaction& t) {
      // Respect coordinator-held locks (2PL): a conflicting intra-shard
      // transaction aborts rather than slipping under a prepared txn.
      for (const auto& k : t.DeclaredWrites()) {
        if (shard->locks()->IsLocked(k)) {
          ++stats_.intra_aborted;
          Notify(t.id, false);
          return;
        }
      }
      for (const auto& k : t.DeclaredReads()) {
        if (shard->locks()->IsLocked(k)) {
          ++stats_.intra_aborted;
          Notify(t.id, false);
          return;
        }
      }
      if (!LocalPreconditionsHold(t, *shard->store())) {
        ++stats_.intra_aborted;
        Notify(t.id, false);
        return;
      }
      shard->Apply(t);
      ++stats_.intra_committed;
      Notify(t.id, true);
    });
    return;
  }
  CoordinatorBegin(LcaCoordinator(involved), std::move(txn));
}

void TwoPhaseShardSystem::CoordinatorBegin(uint32_t coord,
                                           txn::Transaction txn) {
  PBC_OBS_COUNT(net_->metrics(), "shard.2pc.begin_rounds", 1);
  CrossTxn state;
  state.involved = ShardsOf(txn, config_.num_shards);
  state.coordinator = coord;
  state.txn = txn;
  txn::TxnId id = txn.id;
  cross_[id] = std::move(state);

  ShardCluster* cc = coordinators_[coord].get();
  cc->OrderAndThen(
      Marker(cc, "begin/" + std::to_string(id)),
      [this, coord, id](const txn::Transaction&) {
        auto it = cross_.find(id);
        if (it == cross_.end()) return;
        ShardCluster* cc = coordinators_[coord].get();
        for (ShardId s : it->second.involved) {
          auto msg = std::make_shared<CsPrepareMsg>();
          msg->txn = it->second.txn;
          msg->coordinator = coord;
          net_->Send(cc->gateway_id(), shards_[s]->gateway_id(),
                     std::move(msg));
        }
      });
}

void TwoPhaseShardSystem::ShardOnPrepare(ShardId s,
                                         const txn::Transaction& txn,
                                         uint32_t coord) {
  PBC_OBS_COUNT(net_->metrics(), "shard.2pc.prepare_rounds", 1);
  shard_pending_[txn.id] = txn;
  ShardCluster* shard = shards_[s].get();
  txn::TxnId id = txn.id;
  shard->OrderAndThen(
      Marker(shard, "prep/" + std::to_string(id) + "/" + std::to_string(s)),
      [this, s, id, coord](const txn::Transaction&) {
        ShardCluster* shard = shards_[s].get();
        auto pit = shard_pending_.find(id);
        if (pit == shard_pending_.end()) return;
        txn::Transaction local =
            ProjectToShard(pit->second, s, config_.num_shards);
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

        auto vote = std::make_shared<CsVoteMsg>();
        vote->id = id;
        vote->shard = s;
        vote->ok = ok;
        net_->Send(shard->gateway_id(),
                   coordinators_[coord]->gateway_id(), std::move(vote));
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

  ShardCluster* cc = coordinators_[coord].get();
  cc->OrderAndThen(
      Marker(cc, "decide/" + std::to_string(id)),
      [this, coord, id, commit](const txn::Transaction&) {
        auto it = cross_.find(id);
        if (it == cross_.end()) return;
        ShardCluster* cc = coordinators_[coord].get();
        for (ShardId s : it->second.involved) {
          auto msg = std::make_shared<CsDecideMsg>();
          msg->id = id;
          msg->commit = commit;
          net_->Send(cc->gateway_id(), shards_[s]->gateway_id(),
                     std::move(msg));
        }
        if (commit) {
          ++stats_.cross_committed;
        } else {
          ++stats_.cross_aborted;
        }
        Notify(id, commit);
        cross_.erase(it);
      });
}

void TwoPhaseShardSystem::ShardOnDecide(ShardId s, txn::TxnId id,
                                        bool commit) {
  ShardCluster* shard = shards_[s].get();
  shard->OrderAndThen(
      Marker(shard, "dec/" + std::to_string(id) + "/" + std::to_string(s)),
      [this, s, id, commit](const txn::Transaction&) {
        ShardCluster* shard = shards_[s].get();
        auto pit = shard_pending_.find(id);
        if (commit && pit != shard_pending_.end()) {
          shard->Apply(ProjectToShard(pit->second, s, config_.num_shards));
        }
        shard->locks()->UnlockAll(id);
        if (shard_outcome_listener_) shard_outcome_listener_(s, id, commit);
        // The pending entry is shared across shards of this system object;
        // erase only once every involved shard has decided. Simplest safe
        // rule: leave it; ids are unique and memory is bounded by workload.
      });
}

void TwoPhaseShardSystem::Notify(txn::TxnId id, bool committed) {
  if (listener_) listener_(id, committed);
}

int64_t TwoPhaseShardSystem::TotalBalance() const {
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
