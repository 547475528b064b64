#include "arch/xov.h"

#include <numeric>

namespace pbc::arch {

void XovBase::ChargeValidation(const txn::Transaction& txn) const {
  block::ChargeValidationCost(txn, validation_cost_);
}

std::vector<txn::Transaction> XovBase::GateBlock(
    std::vector<Endorsed>* endorsed, const std::vector<size_t>& order) {
  size_t committed = block::GateAndCommit(endorsed, order, &store_);
  stats_.committed += committed;
  stats_.aborted += order.size() - committed;
  std::vector<txn::Transaction> effective;
  effective.reserve(committed);
  for (size_t i : order) {
    if ((*endorsed)[i].valid) effective.push_back(*(*endorsed)[i].txn);
  }
  return effective;
}

void XovArchitecture::ProcessBlock(
    const std::vector<txn::Transaction>& block) {
  auto endorsed = block::EndorseAll(block, store_, 0, pool_);
  // Serial validation pipeline: the per-txn checks run one by one before
  // the single commit scan.
  for (const auto& e : endorsed) ChargeValidation(*e.txn);
  std::vector<size_t> order(block.size());
  std::iota(order.begin(), order.end(), size_t{0});
  AppendLedgerBlock(GateBlock(&endorsed, order));
}

void FastFabricArchitecture::ProcessBlock(
    const std::vector<txn::Transaction>& block) {
  // FastFabric = the parallel block validator: endorsement and the
  // per-transaction checks fan out over the pool in one flat loop
  // (block::EndorseAll); only the MVCC gate stays serial.
  block::ParallelValidator validator(pool_, &store_, validation_cost_);
  std::vector<bool> valid = validator.ProcessBlock(block);
  stats_.committed += validator.stats().committed;
  stats_.aborted += validator.stats().aborted;
  stats_.dag_edges += validator.stats().conflict_edges;
  stats_.dag_levels += validator.stats().levels;
  std::vector<txn::Transaction> effective;
  effective.reserve(block.size());
  for (size_t i = 0; i < block.size(); ++i) {
    if (valid[i]) effective.push_back(block[i]);
  }
  AppendLedgerBlock(std::move(effective));
}

void XoxArchitecture::ProcessBlock(
    const std::vector<txn::Transaction>& block) {
  auto endorsed = block::EndorseAll(block, store_, 0, pool_);
  for (const auto& e : endorsed) ChargeValidation(*e.txn);
  std::vector<size_t> order(block.size());
  std::iota(order.begin(), order.end(), size_t{0});
  size_t committed = block::GateAndCommit(&endorsed, order, &store_);
  stats_.committed += committed;
  std::vector<txn::Transaction> effective;
  effective.reserve(block.size());
  for (const auto& e : endorsed) {
    if (e.valid) effective.push_back(*e.txn);
  }
  // Post-order execution step: deterministically re-execute the
  // invalidated transactions against fresh state, in block order. Every
  // replica performs the same re-execution, so determinism is preserved.
  for (const auto& e : endorsed) {
    if (e.valid) continue;
    txn::ExecResult r = txn::Execute(*e.txn, txn::LatestReader(&store_));
    if (!r.writes.empty()) {
      store_.ApplyBatch(r.writes, store_.last_committed() + 1);
    }
    ++stats_.reexecuted;
    ++stats_.committed;
    effective.push_back(*e.txn);
  }
  AppendLedgerBlock(std::move(effective));
}

}  // namespace pbc::arch
