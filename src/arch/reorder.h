// Intra-block transaction reordering (Fabric++ [54] / FabricSharp [52]).
//
// Because XOV endorses every transaction of a block against the same
// pre-block snapshot, a transaction's read stays valid as long as it
// commits *before* any transaction that writes the keys it read. Building
// the directed conflict graph with an edge reader→writer per shared key,
// any topological order commits every transaction — unless the graph has
// cycles, in which case some transactions must abort to break them.
//
//   Fabric++    (modeled): aborts every transaction on a cycle (any vertex
//                in a non-trivial SCC), then commits the rest in
//                topological order. Conservative, simple, strictly fewer
//                aborts than plain Fabric on conflicting workloads.
//   FabricSharp (modeled): aborts only a (greedy) feedback vertex set, so
//                never more than Fabric++'s whole-SCC policy. Both
//                systems' early filter of already-stale reads is subsumed
//                here: endorsement runs at block entry, so nothing is
//                stale before the gate (fabricpp.h).
//
// The reorder graph is not block::ConflictGraph. It is built from the
// rwsets endorsement observed rather than from declared ops, it has edges
// in both index directions, and it may contain cycles; ConflictGraph is a
// forward-only DAG for level scheduling. One graph serving both would
// have to branch on its caller.
#ifndef PBC_ARCH_REORDER_H_
#define PBC_ARCH_REORDER_H_

#include <cstddef>
#include <vector>

#include "arch/xov.h"

namespace pbc::arch {

/// \brief Outcome of intra-block reordering.
struct ReorderResult {
  /// Commit order (indices into the endorsed block), cycle members removed.
  std::vector<size_t> order;
  /// Indices aborted to break cycles, ascending.
  std::vector<size_t> aborted;
};

/// \brief Builds the reader→writer conflict graph over endorsed rwsets.
/// adjacency[u] holds v iff some key read by u is written by v (u must
/// commit before v).
std::vector<std::vector<size_t>> BuildConflictGraph(
    const std::vector<Endorsed>& endorsed);

/// \brief Reorders a block.
///
/// `minimal_aborts == false` → Fabric++ policy (abort whole SCCs);
/// `minimal_aborts == true`  → FabricSharp policy (greedy feedback vertex
/// set: while a cycle remains, abort the vertex on a cycle with the
/// largest (in+1)·(out+1), degrees counted among the remaining members of
/// its SCC; the lowest index breaks ties).
ReorderResult ReorderBlock(const std::vector<Endorsed>& endorsed,
                           bool minimal_aborts);

/// \brief Strongly connected components (Tarjan), returned as lists of
/// vertex indices; exposed for testing.
std::vector<std::vector<size_t>> StronglyConnectedComponents(
    const std::vector<std::vector<size_t>>& adjacency);

}  // namespace pbc::arch

#endif  // PBC_ARCH_REORDER_H_
