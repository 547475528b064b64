#include "shard/resilientdb.h"

namespace pbc::shard {

namespace {

struct RdbShareMsg : sim::Typed<RdbShareMsg> {
  uint32_t cluster = 0;
  uint64_t index = 0;
  bool noop = true;
  txn::Transaction txn;
  static constexpr char kType[] = "rdb-share";
  size_t ByteSize() const override {
    return noop ? 48 : 96 + txn::EncodedSize(txn);
  }
};

}  // namespace

ResilientDbSystem::ResilientDbSystem(sim::Network* net,
                                     crypto::KeyRegistry* registry,
                                     uint32_t num_clusters,
                                     size_t replicas_per_cluster,
                                     consensus::ClusterConfig cluster_config,
                                     sim::NodeId base_node_id)
    : net_(net),
      merge_(num_clusters),
      local_published_(num_clusters, 0),
      state_(num_clusters) {
  sim::NodeId next = base_node_id;
  for (uint32_t c = 0; c < num_clusters; ++c) {
    clusters_.push_back(std::make_unique<ShardCluster>(
        c, net, registry, replicas_per_cluster, next, cluster_config));
    clusters_.back()->set_handler([this, c](const sim::MessagePtr& msg) {
      if (const auto* m = sim::As<RdbShareMsg>(*msg)) {
        OnShare(c, m->cluster, m->index, Slot{m->noop, m->txn});
      }
    });
    next += static_cast<sim::NodeId>(replicas_per_cluster + 1);
  }
  for (auto& m : merge_) m.slots.resize(num_clusters);
}

std::vector<ShardCluster*> ResilientDbSystem::clusters() const {
  std::vector<ShardCluster*> out;
  for (const auto& c : clusters_) out.push_back(c.get());
  return out;
}

void ResilientDbSystem::Submit(uint32_t home, txn::Transaction txn) {
  ShardCluster* cluster = clusters_[home].get();
  cluster->OrderAndThen(txn, [this, home](const txn::Transaction& t) {
    uint64_t index = local_published_[home]++;
    for (uint32_t peer = 0; peer < num_clusters(); ++peer) {
      auto share = std::make_shared<RdbShareMsg>();
      share->cluster = home;
      share->index = index;
      share->noop = false;
      share->txn = t;
      net_->Send(clusters_[home]->gateway_id(),
                 clusters_[peer]->gateway_id(), share);
    }
  });
}

void ResilientDbSystem::OnShare(uint32_t at, uint32_t cluster,
                                uint64_t slot_index, const Slot& slot) {
  merge_[at].slots[cluster][slot_index] = slot;
  DrainRounds(at);
  // Liveness: if my own cluster is the straggler, publish a no-op slot.
  MaybePublishNoop(at);
}

void ResilientDbSystem::DrainRounds(uint32_t at) {
  MergeState& m = merge_[at];
  for (;;) {
    // Round `m.round`: need slot m.round from every cluster.
    for (uint32_t c = 0; c < num_clusters(); ++c) {
      if (m.slots[c].count(m.round) == 0) return;
    }
    for (uint32_t c = 0; c < num_clusters(); ++c) {
      auto it = m.slots[c].find(m.round);
      const Slot& slot = it->second;
      if (!slot.noop) {
        auto r = txn::Execute(slot.txn, state_[at]);
        if (!r.writes.empty()) {
          state_[at].ApplyBatch(r.writes, state_[at].last_committed() + 1);
        }
        if (at == c) {
          ++executed_;
          if (listener_) listener_(slot.txn.id, true);
        }
      }
      m.slots[c].erase(it);
    }
    ++m.round;
  }
}

void ResilientDbSystem::MaybePublishNoop(uint32_t cluster) {
  // How far ahead is the furthest peer?
  uint64_t max_seen = 0;
  const MergeState& m = merge_[cluster];
  for (uint32_t c = 0; c < num_clusters(); ++c) {
    if (c == cluster) continue;
    if (!m.slots[c].empty()) {
      max_seen = std::max(max_seen, m.slots[c].rbegin()->first + 1);
    }
  }
  while (local_published_[cluster] + noops_in_flight_[cluster] < max_seen) {
    ++noops_in_flight_[cluster];
    ShardCluster* cl = clusters_[cluster].get();
    txn::Transaction noop = cl->Marker("rdb/noop");
    cl->OrderAndThen(noop, [this, cluster](const txn::Transaction&) {
      --noops_in_flight_[cluster];
      uint64_t index = local_published_[cluster]++;
      for (uint32_t peer = 0; peer < num_clusters(); ++peer) {
        auto share = std::make_shared<RdbShareMsg>();
        share->cluster = cluster;
        share->index = index;
        share->noop = true;
        net_->Send(clusters_[cluster]->gateway_id(),
                   clusters_[peer]->gateway_id(), share);
      }
    });
  }
}

const store::KvStore& ResilientDbSystem::StateOf(uint32_t i) const {
  return state_[i];
}

}  // namespace pbc::shard
