#include "check/durable.h"

#include "store/block_log.h"
#include "store/codec.h"
#include "txn/transaction.h"

namespace pbc::check {

namespace {

std::string LogPath(const std::string& dir) { return dir + "/blocks.log"; }

// The fault-surface prefix the harness uses for a node's directory (the
// key SetLoseFlushes / Crash / the introspection counters are filed
// under).
std::string FaultPrefix(const std::string& dir) { return dir + "/"; }

// Valid chained frames in the durable log image — by a *correct* scan,
// independent of whatever (possibly mutated) recovery path is configured.
uint64_t ValidFramesInImage(const sim::FsImage& image,
                            const std::string& dir) {
  auto it = image.find(LogPath(dir));
  if (it == image.end()) return 0;
  return store::ScanLog(it->second).blocks.size();
}

}  // namespace

RecoverFn ProductionRecovery(bool mutate_recovery, bool use_snapshot) {
  return [mutate_recovery, use_snapshot](const sim::FsImage& image,
                                         const std::string& dir) {
    return store::DurableLedger::RecoverFromImage(image, dir, mutate_recovery,
                                                  use_snapshot);
  };
}

std::string ReplayChainState(const ledger::Chain& chain, uint64_t height) {
  store::KvStore kv;
  store::Version next_version = 1;
  for (uint64_t h = 0; h < height && h < chain.height(); ++h) {
    for (const txn::Transaction& t : chain.at(h).txns) {
      txn::ApplyCommitted(t, &kv, &next_version);
    }
  }
  return store::SerializeLatestState(kv);
}

// --- RecoveryEquivalenceChecker --------------------------------------------

void RecoveryEquivalenceChecker::Poll(sim::Time now,
                                      std::vector<Violation>* out) {
  for (size_t i = 0; i < targets_.size(); ++i) {
    const DurableTarget& t = targets_[i];
    const ledger::Chain* chain = t.chain ? t.chain() : nullptr;
    if (chain == nullptr) continue;
    store::DurableLedger::Recovered rec =
        recover_(fs_->DurableImage(FaultPrefix(t.dir)), t.dir);
    if (rec.height > chain->height()) {
      out->push_back({name(),
                      "replica " + std::to_string(i) + " disk recovers " +
                          std::to_string(rec.height) +
                          " blocks but the replica only committed " +
                          std::to_string(chain->height()) +
                          " — recovery resurrected blocks",
                      now});
      continue;
    }
    bool prefix_ok = true;
    for (uint64_t h = 0; h < rec.height; ++h) {
      if (!(rec.blocks[h].header.Hash() == chain->at(h).header.Hash())) {
        out->push_back({name(),
                        "replica " + std::to_string(i) +
                            " recovered a different block at height " +
                            std::to_string(h) +
                            " than its in-memory chain holds",
                        now});
        prefix_ok = false;
        break;
      }
    }
    if (prefix_ok && rec.state != ReplayChainState(*chain, rec.height)) {
      out->push_back({name(),
                      "replica " + std::to_string(i) +
                          " recovered world state at height " +
                          std::to_string(rec.height) +
                          " does not byte-equal the in-memory replay of "
                          "the same prefix",
                      now});
    }
  }
}

// --- SnapshotConvergenceChecker --------------------------------------------

void SnapshotConvergenceChecker::Poll(sim::Time now,
                                      std::vector<Violation>* out) {
  for (size_t i = 0; i < targets_.size(); ++i) {
    const DurableTarget& t = targets_[i];
    sim::FsImage image = fs_->DurableImage(FaultPrefix(t.dir));
    store::DurableLedger::Recovered via_snapshot =
        recover_snapshot_(image, t.dir);
    store::DurableLedger::Recovered via_replay = recover_full_(image, t.dir);
    if (via_snapshot.used_snapshot) ++snapshot_recoveries_;
    if (via_snapshot.height != via_replay.height) {
      out->push_back({name(),
                      "replica " + std::to_string(i) +
                          " snapshot recovery reaches height " +
                          std::to_string(via_snapshot.height) +
                          " but full log replay reaches " +
                          std::to_string(via_replay.height),
                      now});
    } else if (via_snapshot.state != via_replay.state) {
      out->push_back(
          {name(),
           "replica " + std::to_string(i) + " snapshot recovery (snapshot at " +
               std::to_string(via_snapshot.snapshot_height) + " + log tail to " +
               std::to_string(via_snapshot.height) +
               ") diverges from full log replay state",
           now});
    } else if (via_snapshot.next_version != via_replay.next_version) {
      out->push_back({name(),
                      "replica " + std::to_string(i) +
                          " snapshot recovery resumes at version " +
                          std::to_string(via_snapshot.next_version) +
                          " but full replay resumes at " +
                          std::to_string(via_replay.next_version),
                      now});
    }
  }
}

// --- SyncedCommitDurabilityChecker -----------------------------------------

void SyncedCommitDurabilityChecker::ObserveRecovery(
    size_t replica_index, const store::DurableLedger::RecoveryReport& report,
    sim::Time now) {
  if (report.recovered_height < report.valid_frames) {
    Record("replica " + std::to_string(replica_index) + " recovery kept " +
               std::to_string(report.recovered_height) + " of " +
               std::to_string(report.valid_frames) +
               " valid frames — an fsynced commit was lost by truncation",
           now);
  }
}

void SyncedCommitDurabilityChecker::Poll(sim::Time now,
                                         std::vector<Violation>* out) {
  for (size_t i = 0; i < targets_.size(); ++i) {
    const DurableTarget& t = targets_[i];
    std::string prefix = FaultPrefix(t.dir);
    sim::FsImage image = fs_->DurableImage(prefix);
    uint64_t valid = ValidFramesInImage(image, t.dir);
    store::DurableLedger::Recovered rec = recover_(image, t.dir);
    if (rec.height < valid) {
      out->push_back({name(),
                      "replica " + std::to_string(i) +
                          " recovery over the current durable image keeps " +
                          std::to_string(rec.height) + " of " +
                          std::to_string(valid) +
                          " valid frames — it would lose an fsynced commit",
                      now});
    }
    // Belief check: only meaningful while the disk has been honest with
    // this node — a dropped flush or torn sector legitimately strands the
    // store's belief above the platter.
    if (t.ledger != nullptr && fs_->fsyncs_dropped(prefix) == 0 &&
        fs_->tears(prefix) == 0 && t.ledger->durable_height() > valid) {
      out->push_back({name(),
                      "replica " + std::to_string(i) + " believes " +
                          std::to_string(t.ledger->durable_height()) +
                          " blocks are durable but the platter holds only " +
                          std::to_string(valid) +
                          " valid frames with no disk fault recorded",
                      now});
    }
  }
}

}  // namespace pbc::check
