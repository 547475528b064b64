#include "check/invariants.h"

#include <algorithm>
#include <set>

namespace pbc::check {

obs::Json Violation::ToJson() const {
  return obs::Json::Object()
      .Set("invariant", invariant)
      .Set("detail", detail)
      .Set("at_us", at);
}

// --- ChainAgreementChecker -------------------------------------------------

void ChainAgreementChecker::Poll(sim::Time now, std::vector<Violation>* out) {
  std::vector<const ledger::Chain*> chains = chains_();
  for (size_t i = 0; i < chains.size(); ++i) {
    for (size_t j = i + 1; j < chains.size(); ++j) {
      if (!chains[i]->PrefixConsistentWith(*chains[j])) {
        out->push_back(
            {name(),
             "chains of replicas " + std::to_string(i) + " (height " +
                 std::to_string(chains[i]->height()) + ") and " +
                 std::to_string(j) + " (height " +
                 std::to_string(chains[j]->height()) +
                 ") are not prefix-consistent",
             now});
      }
    }
  }
}

// --- ChainLinkageChecker ---------------------------------------------------

void ChainLinkageChecker::Poll(sim::Time now, std::vector<Violation>* out) {
  std::vector<const ledger::Chain*> chains = chains_();
  for (size_t i = 0; i < chains.size(); ++i) {
    Status status = chains[i]->Audit();
    if (!status.ok()) {
      out->push_back({name(),
                      "chain audit failed on replica " + std::to_string(i) +
                          ": " + status.message(),
                      now});
    }
  }
}

// --- CommitValidityChecker -------------------------------------------------

void CommitValidityChecker::Poll(sim::Time now, std::vector<Violation>* out) {
  std::vector<const ledger::Chain*> chains = chains_();
  for (size_t i = 0; i < chains.size(); ++i) {
    std::set<txn::TxnId> seen;
    for (const ledger::Block& block : chains[i]->blocks()) {
      for (const txn::Transaction& t : block.txns) {
        if (!is_valid_id_(t.id)) {
          out->push_back({name(),
                          "replica " + std::to_string(i) +
                              " committed a transaction that was never "
                              "submitted (id " +
                              std::to_string(t.id) + ")",
                          now});
        }
        if (!seen.insert(t.id).second) {
          out->push_back({name(),
                          "replica " + std::to_string(i) +
                              " committed transaction " +
                              std::to_string(t.id) + " more than once",
                          now});
        }
      }
    }
  }
}

// --- KvModelChecker --------------------------------------------------------

void KvModelChecker::OnCommit(size_t replica_index,
                              const txn::Transaction& txn, sim::Time now) {
  size_t pos = cursor_[replica_index]++;
  if (pos < canonical_.size()) {
    if (canonical_[pos] != txn.id) {
      Record("replica " + std::to_string(replica_index) + " committed txn " +
                 std::to_string(txn.id) + " at position " +
                 std::to_string(pos) +
                 " where the sequential history holds txn " +
                 std::to_string(canonical_[pos]),
             now);
    }
    return;
  }
  // First replica to reach this position extends the canonical history.
  canonical_.push_back(txn.id);
  txn::ApplyCommitted(txn, &model_, &next_version_);
}

// --- BalanceConservationChecker --------------------------------------------

void BalanceConservationChecker::Poll(sim::Time now,
                                      std::vector<Violation>* out) {
  if (settled_ && !settled_()) return;
  int64_t total = total_();
  int64_t expected = expected_();
  if (total != expected) {
    out->push_back({name(),
                    "total balance " + std::to_string(total) +
                        " != expected " + std::to_string(expected),
                    now});
  }
}

// --- CrossShardAtomicityChecker --------------------------------------------

void CrossShardAtomicityChecker::ExpectOutcomes(txn::TxnId id,
                                                size_t involved_clusters) {
  expected_[id] = involved_clusters;
}

void CrossShardAtomicityChecker::OnShardOutcome(uint32_t shard, txn::TxnId id,
                                                bool commit, sim::Time now) {
  auto& per_shard = outcomes_[id];
  per_shard[shard] = commit;
  for (const auto& [other, outcome] : per_shard) {
    if (outcome != commit) {
      Record("cross-shard txn " + std::to_string(id) + ": cluster " +
                 std::to_string(shard) + (commit ? " committed" : " aborted") +
                 " while cluster " + std::to_string(other) +
                 (outcome ? " committed" : " aborted"),
             now);
      break;
    }
  }
}

bool CrossShardAtomicityChecker::AllDecided() const {
  for (const auto& [id, involved] : expected_) {
    auto it = outcomes_.find(id);
    if (it == outcomes_.end() || it->second.size() < involved) return false;
  }
  return true;
}

// --- CheckerSuite ----------------------------------------------------------

ChainAgreementChecker::ChainsFn CheckerSuite::AddChainCheckers(
    std::vector<ChainAgreementChecker::ChainsFn> clusters) {
  for (const auto& chains : clusters) {
    Add(std::make_unique<ChainAgreementChecker>(chains));
  }
  ChainAgreementChecker::ChainsFn all = [clusters = std::move(clusters)] {
    std::vector<const ledger::Chain*> v;
    for (const auto& chains : clusters) {
      std::vector<const ledger::Chain*> c = chains();
      v.insert(v.end(), c.begin(), c.end());
    }
    return v;
  };
  Add(std::make_unique<ChainLinkageChecker>(all));
  return all;
}

void CheckerSuite::RunOne(InvariantChecker* checker) {
  ++coverage_[checker->name()];
  std::vector<Violation> found;
  checker->Check(sim_->now(), &found);
  size_t& recorded = recorded_[checker->name()];
  for (Violation& v : found) {
    if (recorded >= kMaxViolationsPerInvariant) break;
    ++recorded;
    violations_.push_back(std::move(v));
  }
}

void CheckerSuite::RunPeriodic() {
  for (auto& checker : checkers_) {
    if (checker->periodic()) RunOne(checker.get());
  }
}

void CheckerSuite::RunFinal() {
  for (auto& checker : checkers_) RunOne(checker.get());
}

void CheckerSuite::StartPeriodic(sim::Time interval_us, sim::Time until) {
  if (sim_->now() > until) return;
  sim_->Schedule(interval_us, [this, interval_us, until] {
    RunPeriodic();
    StartPeriodic(interval_us, until);
  });
}

}  // namespace pbc::check
