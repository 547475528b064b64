#include "confidential/caper.h"

namespace pbc::confidential {

void CaperEnterprise::ApplyInternal(const ledger::DagVertex& vertex) {
  view_.push_back(vertex);
  auto r = txn::Execute(vertex.txn, private_store_);
  if (!r.writes.empty()) {
    private_store_.ApplyBatch(r.writes, private_store_.last_committed() + 1);
  }
}

void CaperEnterprise::ApplyCross(const ledger::DagVertex& vertex) {
  view_.push_back(vertex);
  auto r = txn::Execute(vertex.txn, public_store_);
  if (!r.writes.empty()) {
    public_store_.ApplyBatch(r.writes, public_store_.last_committed() + 1);
  }
}

CaperSystem::CaperSystem(uint32_t num_enterprises)
    : dag_(num_enterprises), internal_orderers_(num_enterprises) {
  for (uint32_t e = 0; e < num_enterprises; ++e) {
    enterprises_.push_back(std::make_unique<CaperEnterprise>(e));
  }
}

void CaperSystem::SetInternalOrderer(txn::EnterpriseId enterprise,
                                     OrdererFn orderer) {
  internal_orderers_[enterprise] = std::move(orderer);
}

void CaperSystem::SetGlobalOrderer(OrdererFn orderer) {
  global_orderer_ = std::move(orderer);
}

std::string CaperSystem::PrivateKeyFor(txn::EnterpriseId e,
                                       const std::string& suffix) {
  return "ent" + std::to_string(e) + "/" + suffix;
}

std::string CaperSystem::SharedKey(const std::string& suffix) {
  return "shared/" + suffix;
}

bool CaperSystem::IsPrivateKeyOf(const store::Key& key,
                                 txn::EnterpriseId e) {
  return key.rfind("ent" + std::to_string(e) + "/", 0) == 0;
}

bool CaperSystem::IsSharedKey(const store::Key& key) {
  return key.rfind("shared/", 0) == 0;
}

Status CaperSystem::SubmitInternal(txn::EnterpriseId enterprise,
                                   txn::Transaction txn) {
  if (enterprise >= enterprises_.size()) {
    return Status::InvalidArgument("unknown enterprise");
  }
  for (const auto& key : txn.DeclaredReads()) {
    if (!IsPrivateKeyOf(key, enterprise)) {
      return Status::PermissionDenied(
          "internal transaction touches foreign or shared key: " + key);
    }
  }
  for (const auto& key : txn.DeclaredWrites()) {
    if (!IsPrivateKeyOf(key, enterprise)) {
      return Status::PermissionDenied(
          "internal transaction touches foreign or shared key: " + key);
    }
  }
  txn.enterprise = enterprise;
  txn.cross_enterprise = false;
  auto commit = [this, enterprise](txn::Transaction t) {
    CommitInternal(enterprise, std::move(t));
  };
  if (internal_orderers_[enterprise]) {
    internal_orderers_[enterprise](std::move(txn), commit);
  } else {
    commit(std::move(txn));
  }
  return Status::OK();
}

Status CaperSystem::SubmitCross(txn::Transaction txn) {
  for (const auto& key : txn.DeclaredReads()) {
    if (!IsSharedKey(key)) {
      return Status::PermissionDenied(
          "cross-enterprise transaction must touch shared keys only: " + key);
    }
  }
  for (const auto& key : txn.DeclaredWrites()) {
    if (!IsSharedKey(key)) {
      return Status::PermissionDenied(
          "cross-enterprise transaction must touch shared keys only: " + key);
    }
  }
  txn.cross_enterprise = true;
  auto commit = [this](txn::Transaction t) { CommitCross(std::move(t)); };
  if (global_orderer_) {
    global_orderer_(std::move(txn), commit);
  } else {
    commit(std::move(txn));
  }
  return Status::OK();
}

void CaperSystem::CommitInternal(txn::EnterpriseId enterprise,
                                 txn::Transaction txn) {
  auto hash = dag_.AppendInternal(enterprise, txn);
  if (!hash.ok()) return;
  const ledger::DagVertex& vertex = dag_.vertices().back();
  enterprises_[enterprise]->ApplyInternal(vertex);
  ++internal_committed_;
}

void CaperSystem::CommitCross(txn::Transaction txn) {
  auto hash = dag_.AppendCross(txn);
  if (!hash.ok()) return;
  const ledger::DagVertex& vertex = dag_.vertices().back();
  for (auto& e : enterprises_) e->ApplyCross(vertex);
  ++cross_committed_;
}

}  // namespace pbc::confidential
