#include "block/conflict.h"

#include <map>

namespace pbc::block {

ConflictGraph ConflictGraph::Build(
    const std::vector<txn::Transaction>& txns) {
  const size_t n = txns.size();
  ConflictGraph g;
  g.adj_.resize(n);

  // Every edge into txn i is added while i is processed, so `from → i` is
  // a duplicate exactly when `from` already carries stamp i. One stamp
  // vector per counter stands in for a set of edges.
  std::vector<size_t> any(n, n), wr(n, n), rw(n, n), ww(n, n);
  auto add = [&](size_t from, size_t to, std::vector<size_t>* kind,
                 size_t* kind_edges) {
    if ((*kind)[from] != to) {
      (*kind)[from] = to;
      ++*kind_edges;
    }
    if (any[from] != to) {
      any[from] = to;
      g.adj_[from].push_back(to);
      ++g.num_edges_;
    }
  };

  // Per-key access history, walked in block order. Ordered map so the
  // adjacency lists come out deterministic regardless of key content.
  struct KeyState {
    bool has_writer = false;
    size_t last_writer = 0;
    std::vector<size_t> readers_since_write;
  };
  std::map<store::Key, KeyState> keys;

  for (size_t i = 0; i < n; ++i) {
    for (const store::Key& k : txns[i].DeclaredReads()) {
      KeyState& st = keys[k];
      if (st.has_writer && st.last_writer != i) {
        add(st.last_writer, i, &wr, &g.wr_edges_);
      }
      st.readers_since_write.push_back(i);
    }
    for (const store::Key& k : txns[i].DeclaredWrites()) {
      KeyState& st = keys[k];
      for (size_t r : st.readers_since_write) {
        if (r != i) add(r, i, &rw, &g.rw_edges_);
      }
      if (st.has_writer && st.last_writer != i) {
        add(st.last_writer, i, &ww, &g.ww_edges_);
      }
      st.has_writer = true;
      st.last_writer = i;
      st.readers_since_write.clear();
    }
  }
  return g;
}

std::vector<std::vector<size_t>> ConflictGraph::Levels() const {
  // Edges only ever point earlier → later, so ascending index order is a
  // topological order; longest-path levels fall out in one pass.
  std::vector<size_t> level(adj_.size(), 0);
  size_t max_level = 0;
  for (size_t i = 0; i < adj_.size(); ++i) {
    for (size_t succ : adj_[i]) {
      if (level[succ] < level[i] + 1) level[succ] = level[i] + 1;
    }
    if (level[i] > max_level) max_level = level[i];
  }
  std::vector<std::vector<size_t>> out(adj_.empty() ? 0 : max_level + 1);
  for (size_t i = 0; i < adj_.size(); ++i) out[level[i]].push_back(i);
  return out;
}

size_t ConflictGraph::MaxLevelWidth() const {
  size_t width = 0;
  for (const auto& level : Levels()) {
    if (level.size() > width) width = level.size();
  }
  return width;
}

}  // namespace pbc::block
