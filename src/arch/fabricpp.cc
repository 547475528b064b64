#include "arch/fabricpp.h"

namespace pbc::arch {

void FabricPPArchitecture::ProcessBlock(
    const std::vector<txn::Transaction>& block) {
  auto endorsed = block::EndorseAll(block, store_, 0, pool_);
  ReorderResult plan = ReorderBlock(endorsed, /*minimal_aborts=*/false);
  stats_.aborted += plan.aborted.size();
  for (size_t i : plan.aborted) endorsed[i].valid = false;

  for (size_t pos = 0; pos < plan.order.size(); ++pos) {
    if (plan.order[pos] != pos) ++stats_.reordered;
    ChargeValidation(*endorsed[plan.order[pos]].txn);
  }
  // The reordered plan feeds the same serial gate the other validators
  // use; cross-block staleness still aborts inside it.
  AppendLedgerBlock(GateBlock(&endorsed, plan.order));
}

void FabricSharpArchitecture::ProcessBlock(
    const std::vector<txn::Transaction>& block) {
  auto endorsed = block::EndorseAll(block, store_, 0, pool_);

  // Early filter: transactions whose reads are already stale against the
  // current state can never pass validation in any intra-block order —
  // drop them before spending reordering or validation effort on them.
  std::vector<Endorsed> viable;
  viable.reserve(endorsed.size());
  for (auto& e : endorsed) {
    if (store_.ValidateReadSet(e.result.reads)) {
      viable.push_back(std::move(e));
    } else {
      ++stats_.early_aborted;
    }
  }

  ReorderResult plan = ReorderBlock(viable, /*minimal_aborts=*/true);
  stats_.aborted += plan.aborted.size();
  for (size_t i : plan.aborted) viable[i].valid = false;

  for (size_t pos = 0; pos < plan.order.size(); ++pos) {
    if (plan.order[pos] != pos) ++stats_.reordered;
    ChargeValidation(*viable[plan.order[pos]].txn);
  }
  AppendLedgerBlock(GateBlock(&viable, plan.order));
}

}  // namespace pbc::arch
