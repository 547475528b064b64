#include "block/validator.h"

#include <cstdlib>

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
  pool->ParallelFor(txns.size(), [&](size_t i) {
    endorsed[i].txn = &txns[i];
    endorsed[i].result = txn::Execute(txns[i], store);
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

std::vector<bool> SerialValidator::ProcessBlock(
    const std::vector<txn::Transaction>& txns) {
  std::vector<Endorsed> endorsed(txns.size());
  std::vector<size_t> order(txns.size());
  for (size_t i = 0; i < txns.size(); ++i) {
    endorsed[i].txn = &txns[i];
    endorsed[i].result = txn::Execute(txns[i], *store_);
    order[i] = i;
  }
  GateAndCommit(&endorsed, order, store_);
  std::vector<bool> flags(txns.size());
  for (size_t i = 0; i < txns.size(); ++i) flags[i] = endorsed[i].valid;
  return flags;
}

}  // namespace pbc::block
