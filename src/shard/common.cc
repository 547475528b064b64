#include "shard/common.h"

#include <algorithm>

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

ShardId KeyToShard(const store::Key& key, uint32_t num_shards) {
  if (num_shards == 0) return 0;
  // Explicit pin: "s<id>/...".
  if (key.size() > 2 && key[0] == 's') {
    size_t slash = key.find('/');
    if (slash != store::Key::npos && slash > 1) {
      uint32_t id = 0;
      bool numeric = true;
      for (size_t i = 1; i < slash; ++i) {
        if (key[i] < '0' || key[i] > '9') {
          numeric = false;
          break;
        }
        id = id * 10 + (key[i] - '0');
      }
      if (numeric) return id % num_shards;
    }
  }
  return static_cast<ShardId>(crypto::Sha256::Digest(key).ToU64() %
                              num_shards);
}

std::vector<ShardId> ShardsOf(const txn::Transaction& txn,
                              uint32_t num_shards) {
  std::set<ShardId> shards;
  for (const auto& k : txn.DeclaredReads()) {
    shards.insert(KeyToShard(k, num_shards));
  }
  for (const auto& k : txn.DeclaredWrites()) {
    shards.insert(KeyToShard(k, num_shards));
  }
  if (shards.empty()) shards.insert(0);
  return {shards.begin(), shards.end()};
}

txn::Transaction ProjectToShard(const txn::Transaction& txn, ShardId shard,
                                uint32_t num_shards) {
  txn::Transaction local;
  local.id = txn.id;
  local.client = txn.client;
  for (const auto& op : txn.ops) {
    if (op.code == txn::OpCode::kCompute) continue;
    if (op.code == txn::OpCode::kTransferGuarded) {
      // Cross-shard transfers must be pre-decomposed into increments; a
      // same-shard transfer projects whole.
      if (KeyToShard(op.key, num_shards) == shard &&
          KeyToShard(op.key2, num_shards) == shard) {
        local.ops.push_back(op);
      }
      continue;
    }
    if (KeyToShard(op.key, num_shards) == shard) local.ops.push_back(op);
  }
  return local;
}

bool LocalPreconditionsHold(const txn::Transaction& local,
                            const store::KvStore& store) {
  // Track running balances so multiple increments on one key compose.
  std::map<store::Key, int64_t> balance;
  for (const auto& op : local.ops) {
    if (op.code != txn::OpCode::kIncrement) continue;
    auto it = balance.find(op.key);
    if (it == balance.end()) {
      auto v = store.Get(op.key);
      it = balance
               .emplace(op.key,
                        v.ok() ? txn::DecodeInt(v.ValueOrDie().value) : 0)
               .first;
    }
    it->second += op.delta;
    if (op.delta < 0 && it->second < 0) return false;
  }
  return true;
}

/// The gateway node: hands every protocol message to its owner's handler.
class ShardCluster::Gateway : public sim::Node {
 public:
  using sim::Node::Node;
  void OnMessage(sim::NodeId, const sim::MessagePtr& msg) override {
    if (handler) handler(msg);
  }
  Handler handler;
};

ShardCluster::ShardCluster(ShardId id, sim::Network* net,
                           crypto::KeyRegistry* registry,
                           size_t replicas_per_shard,
                           sim::NodeId base_node_id,
                           consensus::ClusterConfig config)
    : id_(id), net_(net) {
  cluster_ = std::make_unique<consensus::Cluster<consensus::PbftReplica>>(
      net, registry, replicas_per_shard, config, base_node_id);
  gateway_ = std::make_unique<Gateway>(
      base_node_id + static_cast<sim::NodeId>(replicas_per_shard), net);
  // The gateway observes every replica's commit stream and deduplicates:
  // with up to f crashed replicas, the first surviving replica to commit
  // still drives the cross-shard protocol forward.
  for (size_t i = 0; i < replicas_per_shard; ++i) {
    cluster_->replica(i)->set_commit_listener(
        [this](sim::NodeId, uint64_t, const consensus::Batch& batch) {
          OnClusterCommit(batch);
        });
  }
}

ShardCluster::~ShardCluster() = default;

sim::NodeId ShardCluster::gateway_id() const { return gateway_->id(); }

void ShardCluster::set_handler(Handler handler) {
  gateway_->handler = std::move(handler);
}

txn::Transaction ShardCluster::Marker(const std::string& key) {
  txn::Transaction m;
  m.id = (static_cast<txn::TxnId>(id_ + 1) << 40) | next_marker_++;
  m.ops.push_back(txn::Op::Write(key, ""));
  return m;
}

void ShardCluster::OrderAndThen(
    txn::Transaction marker,
    std::function<void(const txn::Transaction&)> then) {
  // Every cross/intra-shard protocol step costs one intra-cluster
  // consensus round; the counter makes that cost visible per run.
  PBC_OBS_COUNT(net_->metrics(), "shard.consensus_rounds", 1);
  pending_[marker.id] = std::move(then);
  cluster_->Submit(marker);
}

void ShardCluster::OnClusterCommit(const consensus::Batch& batch) {
  for (const auto& t : batch.txns) {
    if (!seen_.insert(t.id).second) continue;  // another replica was first
    auto it = pending_.find(t.id);
    if (it != pending_.end()) {
      auto fn = std::move(it->second);
      pending_.erase(it);
      fn(t);
    }
  }
}

void ShardCluster::Apply(const txn::Transaction& txn) {
  auto r = txn::Execute(txn, store_);
  if (!r.writes.empty()) {
    store_.ApplyBatch(r.writes, store_.last_committed() + 1);
  }
}

ShardedSystem::ShardedSystem(sim::Network* net,
                             crypto::KeyRegistry* registry,
                             uint32_t num_shards, uint32_t num_coordinators,
                             size_t replicas_per_shard,
                             consensus::ClusterConfig cluster_config,
                             sim::NodeId base_node_id)
    : net_(net), num_shards_(num_shards), prepared_(num_shards) {
  sim::NodeId next = base_node_id;
  for (uint32_t c = 0; c < num_shards + num_coordinators; ++c) {
    ShardId id = c < num_shards ? c : 1000 + (c - num_shards);
    clusters_.push_back(std::make_unique<ShardCluster>(
        id, net, registry, replicas_per_shard, next, cluster_config));
    next += static_cast<sim::NodeId>(replicas_per_shard + 1);
  }
  for (ShardId s = 0; s < num_shards; ++s) {
    shard(s)->set_handler(
        [this, s](const sim::MessagePtr& msg) { OnShardMessage(s, msg); });
  }
}

ShardedSystem::~ShardedSystem() = default;

std::vector<ShardCluster*> ShardedSystem::clusters() const {
  std::vector<ShardCluster*> out;
  for (const auto& c : clusters_) out.push_back(c.get());
  return out;
}

void ShardedSystem::Submit(txn::Transaction txn) {
  auto involved = ShardsOf(txn, num_shards_);
  if (involved.size() > 1) {
    SubmitCross(std::move(txn), std::move(involved));
    return;
  }
  ShardCluster* sc = shard(involved[0]);
  sc->OrderAndThen(std::move(txn), [this, sc](const txn::Transaction& t) {
    // The intra-shard rule (file comment of common.h).
    auto locked = [sc](const std::vector<store::Key>& keys) {
      return std::any_of(keys.begin(), keys.end(), [sc](const auto& k) {
        return sc->locks()->IsLocked(k);
      });
    };
    bool ok = !locked(t.DeclaredWrites()) && !locked(t.DeclaredReads()) &&
              LocalPreconditionsHold(t, *sc->store());
    if (ok) {
      sc->Apply(t);
      ++stats_.intra_committed;
    } else {
      ++stats_.intra_aborted;
    }
    if (listener_) listener_(t.id, ok);
  });
}

bool ShardedSystem::Prepare(ShardId s, const txn::Transaction& txn) {
  store::LockTable* locks = shard(s)->locks();
  txn::Transaction local = ProjectToShard(txn, s, num_shards_);
  bool ok = true;
  for (const auto& k : local.DeclaredWrites()) {
    ok = ok && locks->LockExclusive(k, txn.id).ok();
  }
  for (const auto& k : local.DeclaredReads()) {
    ok = ok && locks->LockShared(k, txn.id).ok();
  }
  ok = ok && LocalPreconditionsHold(local, *shard(s)->store());
  if (!ok) locks->UnlockAll(txn.id);
  prepared_[s][txn.id] = txn;
  return ok;
}

void ShardedSystem::Decide(ShardId s, txn::TxnId id, bool commit) {
  ShardCluster* sc = shard(s);
  auto it = prepared_[s].find(id);
  if (it != prepared_[s].end()) {
    if (commit) sc->Apply(ProjectToShard(it->second, s, num_shards_));
    prepared_[s].erase(it);
  }
  sc->locks()->UnlockAll(id);
  if (shard_outcome_listener_) shard_outcome_listener_(s, id, commit);
}

const txn::Transaction* ShardedSystem::Prepared(ShardId s,
                                                txn::TxnId id) const {
  auto it = prepared_[s].find(id);
  return it == prepared_[s].end() ? nullptr : &it->second;
}

size_t ShardedSystem::prepared_count() const {
  size_t n = 0;
  for (const auto& p : prepared_) n += p.size();
  return n;
}

void ShardedSystem::FinishCross(txn::TxnId id, bool commit) {
  if (commit) {
    ++stats_.cross_committed;
  } else {
    ++stats_.cross_aborted;
  }
  if (listener_) listener_(id, commit);
}

int64_t ShardedSystem::TotalBalance() const {
  int64_t total = 0;
  for (uint32_t s = 0; s < num_shards_; ++s) {
    clusters_[s]->store()->ForEachLatest(
        [&](const store::Key&, const store::VersionedValue& v) {
          total += txn::DecodeInt(v.value);
        });
  }
  return total;
}

}  // namespace pbc::shard
