// Shared sharding infrastructure (§2.3.4).
//
// A `ShardCluster` is one fault-tolerant cluster: a real PBFT instance
// ordering that cluster's transactions, a gateway node that speaks the
// cross-shard protocols (its owner sets the message handler), the
// cluster's state store, and a 2PL lock table. Every protocol step that
// requires cluster-internal agreement (prepare, decide, commit) is
// submitted as a marker transaction (`Marker`) into the cluster's PBFT and
// acted upon only when it commits — so cross-shard coordination rides on
// genuine consensus rather than on a trusted single node.
//
// `ShardedSystem` is what the sharded ledgers share: the shard clusters,
// routing, the intra-shard commit rule, the 2PL prepare step (lock the
// shard's projection, check its guards, vote) and the decide step (apply
// on commit, unlock, report). A subclass adds only its cross-shard
// coordination: AHL/Saguaro route prepare, votes and the decision through
// a coordinator cluster; SharPer lets the involved shards exchange their
// votes directly. ResilientDB-style clustering shares `ShardCluster` but
// not the base: its ledger is not sharded, so it has no locks.
//
// The intra-shard rule: a single-shard transaction aborts if any key it
// declares, read or write, is locked by a prepared cross-shard
// transaction. Reads count too because nothing yet checks isolation
// across shards: a read under a prepared writer could see a value that
// the writer's decide is about to change.
//
// Modeling note: replicas order; the gateway deterministically executes
// the ordered log against the shard store. Since execution is a pure
// function of the log, the gateway's store equals what every replica would
// materialize; gateway state is thus "the cluster's state", not a trusted
// shortcut for agreement (agreement always goes through PBFT).
#ifndef PBC_SHARD_COMMON_H_
#define PBC_SHARD_COMMON_H_

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "consensus/cluster.h"
#include "consensus/pbft.h"
#include "store/kv_store.h"
#include "txn/transaction.h"

namespace pbc::obs {
class MetricsRegistry;
}  // namespace pbc::obs

namespace pbc::shard {

using ShardId = uint32_t;

/// \brief Outcome callback: (transaction id, committed?).
using TxnListener = std::function<void(txn::TxnId, bool)>;

/// \brief Per-cluster outcome callback for cross-shard transactions:
/// (shard, transaction id, committed?). Fires when THAT cluster orders its
/// local commit/abort — the observation point for the cross-shard
/// atomicity invariant (no cluster may commit while a sibling aborts).
using ShardOutcomeListener = std::function<void(ShardId, txn::TxnId, bool)>;

/// \brief Counters for the sharded systems.
struct ShardStats {
  uint64_t intra_committed = 0;
  uint64_t intra_aborted = 0;  ///< blocked by a cross-shard lock
  uint64_t cross_committed = 0;
  uint64_t cross_aborted = 0;

  uint64_t aborted() const { return intra_aborted + cross_aborted; }
  uint64_t committed() const { return intra_committed + cross_committed; }
  /// Aborted fraction of all finished transactions (0 when none finished).
  double AbortRate() const {
    uint64_t total = committed() + aborted();
    return total == 0 ? 0.0 : static_cast<double>(aborted()) / total;
  }
};

/// \brief Dumps `stats` into `m` as "shard.*" counters (no-op on nullptr).
void ExportShardStats(const ShardStats& stats, obs::MetricsRegistry* m);

/// \brief Maps a key to its home shard (hash partitioning). Keys may pin
/// a shard explicitly with the prefix "s<id>/".
ShardId KeyToShard(const store::Key& key, uint32_t num_shards);

/// \brief Shards touched by a transaction, ascending.
std::vector<ShardId> ShardsOf(const txn::Transaction& txn,
                              uint32_t num_shards);

/// \brief The ops of `txn` whose keys live on `shard`.
txn::Transaction ProjectToShard(const txn::Transaction& txn, ShardId shard,
                                uint32_t num_shards);

/// \brief Checks guarded semantics for the local projection: every
/// negative increment must keep its balance non-negative. Used as the 2PC
/// prepare-phase business check.
bool LocalPreconditionsHold(const txn::Transaction& local,
                            const store::KvStore& store);

/// \brief One fault-tolerant cluster with its gateway.
class ShardCluster {
 public:
  /// Handles a protocol message delivered to the gateway.
  using Handler = std::function<void(const sim::MessagePtr&)>;

  /// Creates the cluster: `replicas_per_shard` PBFT replicas with node ids
  /// [base_node_id, …) plus a gateway at base_node_id + replicas_per_shard.
  ShardCluster(ShardId id, sim::Network* net, crypto::KeyRegistry* registry,
               size_t replicas_per_shard, sim::NodeId base_node_id,
               consensus::ClusterConfig config = {});
  ~ShardCluster();

  ShardId id() const { return id_; }
  sim::NodeId gateway_id() const;
  void set_handler(Handler handler);

  /// A marker transaction whose one op blind-writes `key`, with a fresh id
  /// from this cluster's marker space (bits >= 40, so never a client id).
  txn::Transaction Marker(const std::string& key);

  /// Submits `marker` to the cluster's PBFT; invokes `then` (on the
  /// gateway) once the cluster has committed it.
  void OrderAndThen(txn::Transaction marker,
                    std::function<void(const txn::Transaction&)> then);

  /// Applies a transaction's effects to the shard store (deterministic
  /// execution of the ordered log).
  void Apply(const txn::Transaction& txn);

  store::KvStore* store() { return &store_; }
  const store::KvStore& store() const { return store_; }
  store::LockTable* locks() { return &locks_; }
  consensus::Cluster<consensus::PbftReplica>* consensus() {
    return cluster_.get();
  }

 private:
  class Gateway;

  void OnClusterCommit(const consensus::Batch& batch);

  ShardId id_;
  sim::Network* net_;
  std::unique_ptr<consensus::Cluster<consensus::PbftReplica>> cluster_;
  std::unique_ptr<Gateway> gateway_;
  store::KvStore store_;
  store::LockTable locks_;
  std::map<txn::TxnId, std::function<void(const txn::Transaction&)>>
      pending_;
  std::set<txn::TxnId> seen_;
  uint64_t next_marker_ = 1;
};

/// \brief A sharded ledger: the shards and every step they take alike.
/// Subclasses supply the cross-shard coordination.
class ShardedSystem {
 public:
  virtual ~ShardedSystem();
  ShardedSystem(const ShardedSystem&) = delete;
  ShardedSystem& operator=(const ShardedSystem&) = delete;

  /// Routes a transaction: a single-shard one is ordered by its shard and
  /// commits under the intra-shard rule (see the file comment); a
  /// multi-shard one goes to the subclass's `SubmitCross`.
  void Submit(txn::Transaction txn);

  void set_listener(TxnListener listener) { listener_ = std::move(listener); }

  /// Observation hook for invariant checkers (src/check): fires on EVERY
  /// involved shard when it orders its local commit/abort of a cross-shard
  /// transaction — unlike `set_listener`, which fires once per
  /// transaction. Never affects protocol behavior.
  void set_shard_outcome_listener(ShardOutcomeListener listener) {
    shard_outcome_listener_ = std::move(listener);
  }

  ShardCluster* shard(uint32_t i) { return clusters_[i].get(); }
  ShardCluster* coordinator(uint32_t i) {
    return clusters_[num_shards_ + i].get();
  }
  uint32_t num_shards() const { return num_shards_; }
  /// Every cluster the system runs: the shards, then any coordinators.
  std::vector<ShardCluster*> clusters() const;
  const ShardStats& stats() const { return stats_; }

  /// Total money across all shards (conservation checks in tests).
  int64_t TotalBalance() const;

  /// Cross-shard transactions prepared on some shard and not yet decided
  /// there, counted once per shard.
  size_t prepared_count() const;

 protected:
  /// Builds `num_shards` shard clusters, then `num_coordinators`
  /// coordinator clusters (cluster ids 1000, 1001, …), on consecutive node
  /// ids from `base_node_id` (each cluster: its replicas, then its
  /// gateway). The subclass sets the coordinators' message handlers.
  ShardedSystem(sim::Network* net, crypto::KeyRegistry* registry,
                uint32_t num_shards, uint32_t num_coordinators,
                size_t replicas_per_shard,
                consensus::ClusterConfig cluster_config,
                sim::NodeId base_node_id);

  /// Starts the cross-shard protocol for `txn`, which touches the
  /// (ascending, two or more) shards `involved`.
  virtual void SubmitCross(txn::Transaction txn,
                           std::vector<ShardId> involved) = 0;
  /// A protocol message arrived at shard `s`'s gateway.
  virtual void OnShardMessage(ShardId s, const sim::MessagePtr& msg) = 0;

  /// The 2PL prepare step, run once shard `s` has ordered its prepare:
  /// locks the shard's projection of `txn` (exclusive on writes, shared on
  /// reads), checks its guards, and releases the locks again on failure.
  /// Keeps `txn` prepared on `s` until `Decide`. Returns the vote.
  bool Prepare(ShardId s, const txn::Transaction& txn);
  /// The decide step, run once shard `s` has ordered its decision: applies
  /// the projection on commit, releases the locks, drops the prepared
  /// state and fires the shard-outcome listener.
  void Decide(ShardId s, txn::TxnId id, bool commit);
  /// The transaction `id` prepared on shard `s`, or nullptr.
  const txn::Transaction* Prepared(ShardId s, txn::TxnId id) const;
  /// Counts a decided cross-shard transaction and reports it.
  void FinishCross(txn::TxnId id, bool commit);

  sim::Network* net_;

 private:
  uint32_t num_shards_;
  std::vector<std::unique_ptr<ShardCluster>> clusters_;  // shards first
  std::vector<std::map<txn::TxnId, txn::Transaction>> prepared_;  // [shard]
  ShardStats stats_;
  TxnListener listener_;
  ShardOutcomeListener shard_outcome_listener_;
};

}  // namespace pbc::shard

#endif  // PBC_SHARD_COMMON_H_
