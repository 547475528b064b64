// SharPer [11] (§2.3.4): sharded ledger with DECENTRALIZED cross-shard
// processing — no reference committee.
//
// Intra-shard transactions use the shard's own PBFT. A cross-shard
// transaction runs a flattened agreement among exactly the involved
// clusters: every involved cluster orders a prepare step locally (with
// 2PL + guard checks), then the clusters exchange their accept/reject
// directly with each other (all-to-all over the gateways — the flattened
// structure), and each cluster orders its commit/abort locally once it has
// heard from everyone. Compared with AHL this removes the committee's two
// consensus rounds and one message round-trip, and cross-shard
// transactions over disjoint cluster sets proceed fully in parallel — the
// two advantages the survey's discussion attributes to the flattened
// approach.
#ifndef PBC_SHARD_SHARPER_H_
#define PBC_SHARD_SHARPER_H_

#include <map>
#include <vector>

#include "shard/common.h"

namespace pbc::shard {

/// \brief The SharPer-style sharded blockchain.
class SharperSystem : public ShardedSystem {
 public:
  SharperSystem(sim::Network* net, crypto::KeyRegistry* registry,
                uint32_t num_shards, size_t replicas_per_shard = 4,
                consensus::ClusterConfig cluster_config = {},
                sim::NodeId base_node_id = 0);

 private:
  /// The initiator (lowest involved shard) fans the proposal out to every
  /// involved shard, itself included.
  void SubmitCross(txn::Transaction txn,
                   std::vector<ShardId> involved) override;
  void OnShardMessage(ShardId s, const sim::MessagePtr& msg) override;
  /// A cross-shard proposal arrived at shard `s`.
  void OnPropose(ShardId s, const txn::Transaction& txn);
  /// Shard `from` accepted/rejected transaction `id`; delivered to `s`.
  /// Once `s` has prepared and heard from every involved shard, it orders
  /// its local commit/abort.
  void OnAck(ShardId s, txn::TxnId id, ShardId from, bool ok);

  /// Per shard: the accept/reject heard so far for each undecided txn.
  std::vector<std::map<txn::TxnId, std::map<ShardId, bool>>> acks_;
};

}  // namespace pbc::shard

#endif  // PBC_SHARD_SHARPER_H_
