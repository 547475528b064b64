#include "block/validator.h"

#include <algorithm>
#include <cstdlib>

#include "block/conflict.h"
#include "crypto/sha256.h"

namespace pbc::block {

void ChargeValidationCost(const txn::Transaction& txn, int rounds) {
  if (rounds <= 0) return;
  crypto::Hash256 acc = txn.Digest();
  for (int i = 0; i < rounds; ++i) {
    crypto::Sha256 h;
    h.Update(acc);
    acc = h.Finalize();
  }
  // Keep the loop observable.
  if (acc.bytes[0] == 0xff && acc.bytes[1] == 0xff && acc.bytes[2] == 0xff &&
      acc.bytes[3] == 0xff && acc.bytes[4] == 0xff) {
    std::abort();  // probability ~2^-40; defeats dead-code elimination
  }
}

std::vector<Endorsed> EndorseAll(const std::vector<txn::Transaction>& txns,
                                 const store::KvStore& store,
                                 int validation_cost_rounds, ThreadPool* pool) {
  std::vector<Endorsed> endorsed(txns.size());
  store::Version snapshot = store.last_committed();
  pool->ParallelFor(txns.size(), [&](size_t i) {
    endorsed[i].txn = &txns[i];
    endorsed[i].result =
        txn::Execute(txns[i], txn::SnapshotReader(&store, snapshot));
    ChargeValidationCost(txns[i], validation_cost_rounds);
  });
  return endorsed;
}

size_t GateAndCommit(std::vector<Endorsed>* endorsed,
                     const std::vector<size_t>& order,
                     store::KvStore* store) {
  size_t committed = 0;
  for (size_t i : order) {
    Endorsed& e = (*endorsed)[i];
    if (!store->ValidateReadSet(e.result.reads)) {
      e.valid = false;
      continue;
    }
    e.valid = true;
    if (!e.result.writes.empty()) {
      store->ApplyBatch(e.result.writes, store->last_committed() + 1);
    }
    ++committed;
  }
  return committed;
}

namespace {

std::vector<size_t> BlockOrder(size_t n) {
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  return order;
}

std::vector<bool> Flags(const std::vector<Endorsed>& endorsed) {
  std::vector<bool> flags(endorsed.size());
  for (size_t i = 0; i < endorsed.size(); ++i) flags[i] = endorsed[i].valid;
  return flags;
}

}  // namespace

std::vector<bool> SerialValidator::ProcessBlock(
    const std::vector<txn::Transaction>& txns) {
  store::Version snapshot = store_->last_committed();
  std::vector<Endorsed> endorsed(txns.size());
  for (size_t i = 0; i < txns.size(); ++i) {
    endorsed[i].txn = &txns[i];
    endorsed[i].result =
        txn::Execute(txns[i], txn::SnapshotReader(store_, snapshot));
    ChargeValidationCost(txns[i], cost_);
  }
  size_t committed = GateAndCommit(&endorsed, BlockOrder(txns.size()), store_);
  ++stats_.blocks;
  stats_.txns += txns.size();
  stats_.committed += committed;
  stats_.aborted += txns.size() - committed;
  return Flags(endorsed);
}

std::vector<bool> ParallelValidator::ProcessBlock(
    const std::vector<txn::Transaction>& txns) {
  std::vector<Endorsed> endorsed = EndorseAll(txns, *store_, cost_, pool_);
  size_t committed = GateAndCommit(&endorsed, BlockOrder(txns.size()), store_);
  ConflictGraph graph = ConflictGraph::Build(txns);
  auto levels = graph.Levels();
  ++stats_.blocks;
  stats_.txns += txns.size();
  stats_.committed += committed;
  stats_.aborted += txns.size() - committed;
  stats_.conflict_edges += graph.num_edges();
  stats_.levels += levels.size();
  for (const auto& level : levels) {
    stats_.max_level_width =
        std::max<uint64_t>(stats_.max_level_width, level.size());
  }
  return Flags(endorsed);
}

}  // namespace pbc::block
