// Coordinator-based cross-shard transaction processing: AHL [25] and
// Saguaro [13] (§2.3.4).
//
// Both process cross-shard transactions with 2PC + 2PL where every
// coordinator/participant "node" is itself a BFT cluster: each protocol
// step (begin, prepare, decide) is ordered by the respective cluster's
// PBFT instance before it takes effect. The two systems differ only in
// *which* cluster coordinates:
//   AHL      — a dedicated reference committee coordinates everything;
//   Saguaro  — coordinator clusters form a tree (edge→fog→cloud); each
//              cross-shard transaction is coordinated by the LOWEST COMMON
//              ANCESTOR of its involved shards, so nearby shards never pay
//              a round-trip to the (distant) root.
//
// AHL's trusted-hardware variant (2f+1 clusters instead of 3f+1) is
// exercised by configuring smaller clusters plus the attested-log shim —
// see bench_e10 and sim/attested_log.h.
#ifndef PBC_SHARD_TWO_PHASE_H_
#define PBC_SHARD_TWO_PHASE_H_

#include <map>
#include <vector>

#include "shard/common.h"

namespace pbc::shard {

/// \brief Configuration: shard clusters + coordinator tree.
struct TwoPhaseConfig {
  uint32_t num_shards = 2;
  size_t replicas_per_shard = 4;
  consensus::ClusterConfig cluster;  ///< applied to every cluster

  /// Coordinator tree: parent[i] of coordinator i (-1 for the root).
  /// AHL: a single coordinator {-1} (the reference committee).
  std::vector<int> coordinator_parent = {-1};
  /// Which coordinator each shard hangs off (AHL: all 0).
  std::vector<uint32_t> shard_coordinator;

  static TwoPhaseConfig Ahl(uint32_t num_shards,
                            size_t replicas_per_shard = 4);
  /// A 3-level Saguaro tree: root(0), one fog node per `fanout` shards,
  /// shards attached to their fog node.
  static TwoPhaseConfig Saguaro(uint32_t num_shards, uint32_t fanout,
                                size_t replicas_per_shard = 4);
};

/// \brief The coordinator-based sharded blockchain: a cross-shard
/// transaction is 2PC through the responsible coordinator cluster.
class TwoPhaseShardSystem : public ShardedSystem {
 public:
  TwoPhaseShardSystem(sim::Network* net, crypto::KeyRegistry* registry,
                      TwoPhaseConfig config, sim::NodeId base_node_id = 0);

  /// Lowest common ancestor of the coordinators of the given shards.
  uint32_t LcaCoordinator(const std::vector<ShardId>& shards) const;

 private:
  /// Coordinator-side state of one cross-shard transaction.
  struct CrossTxn {
    txn::Transaction txn;
    std::vector<ShardId> involved;
    std::map<ShardId, bool> votes;
    bool decided = false;
  };

  /// The begin round: the LCA coordinator orders the begin, then sends
  /// the prepare to every involved shard.
  void SubmitCross(txn::Transaction txn,
                   std::vector<ShardId> involved) override;
  void OnShardMessage(ShardId s, const sim::MessagePtr& msg) override;
  void CoordinatorOnVote(uint32_t coord, txn::TxnId id, ShardId shard,
                         bool ok);
  void ShardOnPrepare(ShardId shard, const txn::Transaction& txn,
                      uint32_t coord);
  void ShardOnDecide(ShardId shard, txn::TxnId id, bool commit);

  TwoPhaseConfig config_;
  std::map<txn::TxnId, CrossTxn> cross_;  // coordinator-side state
};

}  // namespace pbc::shard

#endif  // PBC_SHARD_TWO_PHASE_H_
