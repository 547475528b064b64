// ResilientDB-style single-ledger clustering [32] (§2.3.4).
//
// Nodes are partitioned into topology-aware fault-tolerant clusters to
// localize the expensive (all-to-all) consensus traffic, but the ledger is
// NOT sharded: every cluster eventually executes every transaction. Each
// cluster locally orders the transactions submitted to it (PBFT), then its
// gateway multicasts the locally-ordered transaction to all other
// clusters; every cluster merges the per-cluster sequences in a fixed
// deterministic round-robin (round r = slot r of cluster 0, 1, …, k−1) and
// executes the merged order. There are therefore no intra-/cross-shard
// transactions — and no cross-shard commit latency — at the price of
// global replication and per-transaction global multicast, which is the
// trade-off E8 measures against the sharded systems.
//
// Liveness: an idle cluster publishes explicit no-op slots so the merge
// never stalls on a cluster with nothing to say.
#ifndef PBC_SHARD_RESILIENTDB_H_
#define PBC_SHARD_RESILIENTDB_H_

#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "shard/common.h"

namespace pbc::shard {

/// \brief The single-ledger clustered blockchain.
class ResilientDbSystem {
 public:
  ResilientDbSystem(sim::Network* net, crypto::KeyRegistry* registry,
                    uint32_t num_clusters, size_t replicas_per_cluster = 4,
                    consensus::ClusterConfig cluster_config = {},
                    sim::NodeId base_node_id = 0);
  ResilientDbSystem(const ResilientDbSystem&) = delete;
  ResilientDbSystem& operator=(const ResilientDbSystem&) = delete;

  /// Submits a transaction to its home cluster (e.g. the client's region).
  void Submit(uint32_t home_cluster, txn::Transaction txn);
  void set_listener(TxnListener listener) { listener_ = std::move(listener); }

  uint32_t num_clusters() const {
    return static_cast<uint32_t>(clusters_.size());
  }
  /// Every cluster, in cluster order.
  std::vector<ShardCluster*> clusters() const;

  /// The globally-merged state as executed by cluster `i`. All clusters
  /// converge to identical stores (asserted by tests).
  const store::KvStore& StateOf(uint32_t i) const;

  uint64_t executed() const { return executed_; }

 private:
  struct Slot {
    bool noop = true;
    txn::Transaction txn;
  };

  /// A locally-ordered slot from `cluster` arrived at merge point `at`.
  void OnShare(uint32_t at, uint32_t cluster, uint64_t slot_index,
               const Slot& slot);
  /// Executes merged rounds at cluster `at` while complete.
  void DrainRounds(uint32_t at);
  /// Publishes a no-op for `cluster` if it is the straggler.
  void MaybePublishNoop(uint32_t cluster);

  sim::Network* net_;
  std::vector<std::unique_ptr<ShardCluster>> clusters_;

  // Per merge-point: received slots per source cluster.
  struct MergeState {
    std::vector<std::map<uint64_t, Slot>> slots;  // [cluster][index]
    uint64_t round = 0;
  };
  std::vector<MergeState> merge_;
  std::vector<uint64_t> local_published_;  // slots each cluster published
  std::map<uint32_t, uint64_t> noops_in_flight_;
  std::vector<store::KvStore> state_;      // merged state per cluster
  uint64_t executed_ = 0;
  TxnListener listener_;
};

}  // namespace pbc::shard

#endif  // PBC_SHARD_RESILIENTDB_H_
