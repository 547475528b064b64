// Convenience harness: builds a cluster of replicas of any protocol over a
// simulated network, with agreement/liveness checks used by tests, the
// sharding layer, and benchmarks.
#ifndef PBC_CONSENSUS_CLUSTER_H_
#define PBC_CONSENSUS_CLUSTER_H_

#include <algorithm>
#include <memory>
#include <vector>

#include "consensus/replica.h"

namespace pbc::consensus {

/// \brief A set of replicas running one consensus instance.
template <typename ReplicaT>
class Cluster {
 public:
  /// Creates `n` replicas with node ids [base_id, base_id + n) registered
  /// in `registry`. `config.replicas`/`f` are filled in here.
  Cluster(sim::Network* net, crypto::KeyRegistry* registry, size_t n,
          ClusterConfig config = {}, sim::NodeId base_id = 0) {
    config.replicas.clear();
    for (size_t i = 0; i < n; ++i) {
      config.replicas.push_back(base_id + static_cast<sim::NodeId>(i));
    }
    if (config.f == 0 || 3 * config.f + 1 > n) {
      config.f = n >= 4 ? static_cast<uint32_t>((n - 1) / 3) : 1;
    }
    for (size_t i = 0; i < n; ++i) {
      sim::NodeId id = config.replicas[i];
      crypto::PrivateKey key = registry->RegisterDeterministic(id, 0xC0FFEE);
      replicas_.push_back(std::make_unique<ReplicaT>(
          id, net, config, std::move(key), registry));
    }
  }

  ReplicaT* replica(size_t i) { return replicas_[i].get(); }
  const ReplicaT* replica(size_t i) const { return replicas_[i].get(); }
  size_t size() const { return replicas_.size(); }

  /// Submits a transaction to every replica (the "client broadcasts"
  /// model: any correct replica can relay to the current leader). The
  /// replicas' pools share one copy of it.
  void Submit(txn::Transaction txn) {
    auto shared = std::make_shared<const txn::Transaction>(std::move(txn));
    for (auto& r : replicas_) r->SubmitTransaction(shared);
  }

  /// Every replica's chain, in replica order.
  std::vector<const ledger::Chain*> chains() const {
    std::vector<const ledger::Chain*> out;
    for (const auto& r : replicas_) out.push_back(&r->chain());
    return out;
  }

  /// All pairwise chains are prefix-consistent (the core safety check).
  bool ChainsConsistent() const {
    for (size_t i = 0; i < replicas_.size(); ++i) {
      for (size_t j = i + 1; j < replicas_.size(); ++j) {
        if (!replicas_[i]->chain().PrefixConsistentWith(
                replicas_[j]->chain())) {
          return false;
        }
      }
    }
    return true;
  }

  /// Minimum over replicas of committed transaction count; with `skip`,
  /// ignores the given replica indices (e.g. crashed nodes).
  uint64_t MinCommitted(const std::vector<size_t>& skip = {}) const {
    uint64_t min_committed = UINT64_MAX;
    for (size_t i = 0; i < replicas_.size(); ++i) {
      if (std::find(skip.begin(), skip.end(), i) != skip.end()) continue;
      min_committed = std::min(min_committed, replicas_[i]->committed_txns());
    }
    return min_committed == UINT64_MAX ? 0 : min_committed;
  }

  uint64_t MaxCommitted() const {
    uint64_t max_committed = 0;
    for (auto& r : replicas_) {
      max_committed = std::max(max_committed, r->committed_txns());
    }
    return max_committed;
  }

 private:
  std::vector<std::unique_ptr<ReplicaT>> replicas_;
};

/// \brief Simple transaction factory for consensus tests/benches (the
/// consensus layer never inspects op contents).
inline txn::Transaction MakeKvTxn(txn::TxnId id, const std::string& key,
                                  const std::string& value) {
  txn::Transaction t;
  t.id = id;
  t.ops.push_back(txn::Op::Write(key, value));
  return t;
}

}  // namespace pbc::consensus

#endif  // PBC_CONSENSUS_CLUSTER_H_
