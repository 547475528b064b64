// Read/write-set conflict graph over one block: the one intra-block
// conflict DAG in the tree.
//
// Both transaction-processing families the survey contrasts read it. OXII
// (ParBlockchain) executes its levels in order, each level in parallel
// (arch/architecture.cc); FastFabric, the parallel Fabric validator,
// reports its shape (arch/xov.cc). Edges are counted by kind — WR (write then read),
// RW (read then write), WW (write then write) — because the per-kind
// counts are the bench-visible "how parallel is this block" signal.
#ifndef PBC_BLOCK_CONFLICT_H_
#define PBC_BLOCK_CONFLICT_H_

#include <cstdint>
#include <vector>

#include "txn/transaction.h"

namespace pbc::block {

/// \brief Conflict DAG over a block's transactions (indices into the
/// block's txn vector; edges always point earlier → later).
///
/// Edges are derived from *declared* access sets, per key, between adjacent
/// conflicting accesses: every reader depends on the preceding writer (WR),
/// every writer depends on the readers since the previous writer (RW) and
/// on the previous writer itself (WW). This is the standard transitive
/// reduction — it preserves reachability, hence longest-path levels, without
/// O(n²) edges. A pair that conflicts on several keys, or in several ways,
/// is one edge; the per-kind counts count each pair once per kind.
class ConflictGraph {
 public:
  static ConflictGraph Build(const std::vector<txn::Transaction>& txns);

  size_t num_txns() const { return adj_.size(); }
  size_t num_edges() const { return num_edges_; }
  size_t wr_edges() const { return wr_edges_; }
  size_t rw_edges() const { return rw_edges_; }
  size_t ww_edges() const { return ww_edges_; }

  /// Transactions that must wait for `i`.
  const std::vector<size_t>& Successors(size_t i) const { return adj_[i]; }

  /// Antichain decomposition: level k holds, in ascending order, every txn
  /// whose longest conflict chain has length k. Txns within a level are
  /// mutually conflict-free — the unit of parallel execution.
  std::vector<std::vector<size_t>> Levels() const;

  /// Widest level — the block's peak parallelism.
  size_t MaxLevelWidth() const;

 private:
  std::vector<std::vector<size_t>> adj_;
  size_t num_edges_ = 0;
  size_t wr_edges_ = 0;
  size_t rw_edges_ = 0;
  size_t ww_edges_ = 0;
};

}  // namespace pbc::block

#endif  // PBC_BLOCK_CONFLICT_H_
