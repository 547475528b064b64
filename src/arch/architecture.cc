#include "arch/architecture.h"

#include "block/conflict.h"
#include "obs/metrics.h"

namespace pbc::arch {

void Architecture::ExportMetrics(obs::MetricsRegistry* m) const {
  if (m == nullptr) return;
  m->GetCounter("arch.blocks")->Add(stats_.blocks);
  m->GetCounter("arch.committed")->Add(stats_.committed);
  m->GetCounter("arch.aborted")->Add(stats_.aborted);
  m->GetCounter("arch.reordered")->Add(stats_.reordered);
  m->GetCounter("arch.reexecuted")->Add(stats_.reexecuted);
  m->GetCounter("arch.dag_edges")->Add(stats_.dag_edges);
  m->GetCounter("arch.dag_levels")->Add(stats_.dag_levels);
}

void Architecture::AppendLedgerBlock(
    std::vector<txn::Transaction> effective) {
  ++stats_.blocks;
  if (!effective.empty()) chain_.Append(std::move(effective));
}

void OxArchitecture::ProcessBlock(
    const std::vector<txn::Transaction>& block) {
  txn::ExecuteSerial(block, &store_);
  stats_.committed += block.size();
  AppendLedgerBlock(block);
}

void OxiiArchitecture::ProcessBlock(
    const std::vector<txn::Transaction>& block) {
  // Order phase artifact: the conflict graph the orderers would attach.
  auto graph = block::ConflictGraph::Build(block);
  auto levels = graph.Levels();
  stats_.dag_edges += graph.num_edges();
  stats_.dag_levels += levels.size();
  txn::ExecuteDag(block, levels, pool_, &store_);
  stats_.committed += block.size();
  AppendLedgerBlock(block);
}

}  // namespace pbc::arch
