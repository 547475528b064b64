#include "arch/xov.h"

#include <numeric>

#include "block/conflict.h"

namespace pbc::arch {

std::vector<size_t> XovBase::GateOrder(const std::vector<Endorsed>& endorsed) {
  std::vector<size_t> order(endorsed.size());
  std::iota(order.begin(), order.end(), size_t{0});
  return order;
}

void XovBase::ProcessBlock(const std::vector<txn::Transaction>& block) {
  const bool parallel = ValidatesInParallel();
  auto endorsed =
      block::EndorseAll(block, store_, parallel ? validation_cost_ : 0, pool_);
  std::vector<size_t> order = GateOrder(endorsed);
  for (size_t pos = 0; pos < order.size(); ++pos) {
    if (order[pos] != pos) ++stats_.reordered;
    if (!parallel) {
      block::ChargeValidationCost(*endorsed[order[pos]].txn, validation_cost_);
    }
  }
  block::GateAndCommit(&endorsed, order, &store_);

  std::vector<txn::Transaction> effective;
  effective.reserve(order.size());
  for (size_t i : order) {
    if (endorsed[i].valid) effective.push_back(*endorsed[i].txn);
  }
  if (ReexecutesInvalid()) {
    // Post-order execution step: re-execute the invalidated transactions
    // against fresh state, in gate order. Every replica performs the same
    // re-execution, so determinism is preserved.
    std::vector<txn::Transaction> invalid;
    for (size_t i : order) {
      if (!endorsed[i].valid) invalid.push_back(*endorsed[i].txn);
    }
    txn::ExecuteSerial(invalid, &store_);
    stats_.reexecuted += invalid.size();
    effective.insert(effective.end(), invalid.begin(), invalid.end());
  }
  stats_.committed += effective.size();
  stats_.aborted += block.size() - effective.size();
  AppendLedgerBlock(std::move(effective));
}

void FastFabricArchitecture::ProcessBlock(
    const std::vector<txn::Transaction>& block) {
  XovBase::ProcessBlock(block);
  auto graph = block::ConflictGraph::Build(block);
  stats_.dag_edges += graph.num_edges();
  stats_.dag_levels += graph.Levels().size();
}

}  // namespace pbc::arch
