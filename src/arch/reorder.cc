#include "arch/reorder.h"

#include <algorithm>
#include <map>
#include <set>

namespace pbc::arch {

std::vector<std::vector<size_t>> BuildConflictGraph(
    const std::vector<Endorsed>& endorsed) {
  size_t n = endorsed.size();
  // key -> writers
  std::map<store::Key, std::vector<size_t>> writers;
  for (size_t i = 0; i < n; ++i) {
    for (const auto& w : endorsed[i].result.writes.writes()) {
      writers[w.key].push_back(i);
    }
  }
  std::vector<std::set<size_t>> adj_sets(n);
  for (size_t i = 0; i < n; ++i) {
    for (const auto& r : endorsed[i].result.reads) {
      auto it = writers.find(r.key);
      if (it == writers.end()) continue;
      for (size_t w : it->second) {
        if (w != i) adj_sets[i].insert(w);  // reader i before writer w
      }
    }
  }
  std::vector<std::vector<size_t>> adjacency(n);
  for (size_t i = 0; i < n; ++i) {
    adjacency[i].assign(adj_sets[i].begin(), adj_sets[i].end());
  }
  return adjacency;
}

namespace {

using Adjacency = std::vector<std::vector<size_t>>;

// Tarjan over the vertices not `masked`; edges into masked vertices are
// ignored, so a masked vertex behaves as if deleted from the graph.
struct TarjanState {
  const Adjacency* adj;
  const std::vector<bool>* masked;
  std::vector<int> index, lowlink;
  std::vector<bool> on_stack;
  std::vector<size_t> stack;
  int next_index = 0;
  std::vector<std::vector<size_t>> sccs;

  void Visit(size_t v) {
    index[v] = lowlink[v] = next_index++;
    stack.push_back(v);
    on_stack[v] = true;
    for (size_t w : (*adj)[v]) {
      if ((*masked)[w]) continue;
      if (index[w] < 0) {
        Visit(w);
        lowlink[v] = std::min(lowlink[v], lowlink[w]);
      } else if (on_stack[w]) {
        lowlink[v] = std::min(lowlink[v], index[w]);
      }
    }
    if (lowlink[v] == index[v]) {
      std::vector<size_t> scc;
      for (;;) {
        size_t w = stack.back();
        stack.pop_back();
        on_stack[w] = false;
        scc.push_back(w);
        if (w == v) break;
      }
      sccs.push_back(std::move(scc));
    }
  }
};

std::vector<std::vector<size_t>> MaskedSccs(const Adjacency& adjacency,
                                            const std::vector<bool>& masked) {
  TarjanState st;
  st.adj = &adjacency;
  st.masked = &masked;
  size_t n = adjacency.size();
  st.index.assign(n, -1);
  st.lowlink.assign(n, 0);
  st.on_stack.assign(n, false);
  for (size_t v = 0; v < n; ++v) {
    if (!masked[v] && st.index[v] < 0) st.Visit(v);
  }
  return st.sccs;
}

// Greedy feedback vertex set inside one SCC: while the remaining members
// still hold a cycle, remove the vertex on a cycle with the largest
// (in-degree + 1) × (out-degree + 1) among the remaining members, lowest
// index first on ties. A member that no longer lies on any cycle is never
// a victim: only non-trivial SCCs of the residual graph are scored.
void BreakCycles(const Adjacency& adjacency, const std::vector<size_t>& scc,
                 std::vector<bool>* removed) {
  size_t n = adjacency.size();
  std::vector<bool> masked(n, true);
  for (size_t v : scc) masked[v] = false;
  for (;;) {
    std::vector<size_t> in_deg(n, 0), out_deg(n, 0);
    for (size_t u : scc) {
      if (masked[u]) continue;
      for (size_t v : adjacency[u]) {
        if (masked[v]) continue;
        ++out_deg[u];
        ++in_deg[v];
      }
    }
    size_t victim = n;
    size_t best_score = 0;
    for (const auto& residual : MaskedSccs(adjacency, masked)) {
      // Self-loops cannot occur: a txn never conflicts with itself.
      if (residual.size() < 2) continue;
      for (size_t u : residual) {
        size_t score = (in_deg[u] + 1) * (out_deg[u] + 1);
        if (score > best_score || (score == best_score && u < victim)) {
          best_score = score;
          victim = u;
        }
      }
    }
    if (victim == n) return;
    masked[victim] = true;
    (*removed)[victim] = true;
  }
}

}  // namespace

std::vector<std::vector<size_t>> StronglyConnectedComponents(
    const Adjacency& adjacency) {
  return MaskedSccs(adjacency, std::vector<bool>(adjacency.size(), false));
}

ReorderResult ReorderBlock(const std::vector<Endorsed>& endorsed,
                           bool minimal_aborts) {
  size_t n = endorsed.size();
  Adjacency adjacency = BuildConflictGraph(endorsed);

  std::vector<bool> removed(n, false);
  for (const auto& scc : StronglyConnectedComponents(adjacency)) {
    if (scc.size() < 2) continue;
    if (minimal_aborts) {
      BreakCycles(adjacency, scc, &removed);  // FabricSharp
    } else {
      for (size_t v : scc) removed[v] = true;  // Fabric++
    }
  }

  // Kahn topological sort of the surviving vertices, preferring original
  // block order among ready vertices (stable, deterministic).
  ReorderResult result;
  std::vector<size_t> in_deg(n, 0);
  for (size_t u = 0; u < n; ++u) {
    if (removed[u]) {
      result.aborted.push_back(u);
      continue;
    }
    for (size_t v : adjacency[u]) {
      if (!removed[v]) ++in_deg[v];
    }
  }
  std::set<size_t> ready;
  for (size_t u = 0; u < n; ++u) {
    if (!removed[u] && in_deg[u] == 0) ready.insert(u);
  }
  while (!ready.empty()) {
    size_t u = *ready.begin();
    ready.erase(ready.begin());
    result.order.push_back(u);
    for (size_t v : adjacency[u]) {
      if (!removed[v] && --in_deg[v] == 0) ready.insert(v);
    }
  }
  return result;
}

}  // namespace pbc::arch
