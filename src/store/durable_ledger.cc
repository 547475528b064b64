#include "store/durable_ledger.h"

#include <algorithm>

#include "store/codec.h"
#include "txn/transaction.h"

namespace pbc::store {

namespace {

std::string LogPath(const std::string& dir) { return dir + "/blocks.log"; }

}  // namespace

DurableLedger::DurableLedger(sim::Fs* fs, Options opts)
    : fs_(fs), opts_(std::move(opts)), log_(fs, LogPath(opts_.dir)) {}

void DurableLedger::ApplyBlockToState(const ledger::Block& block) {
  for (const txn::Transaction& t : block.txns) {
    WriteBatch writes = txn::ApplyCommitted(t, &kv_, &next_version_);
    if (opts_.snapshot_interval == 0) continue;
    for (const WriteAccess& w : writes.writes()) dirty_.push_back(w.key);
  }
  ++kv_height_;
}

void DurableLedger::Persist(const ledger::Chain& chain) {
  if (chain.height() <= durable_height_) return;
  for (uint64_t h = durable_height_; h < chain.height(); ++h) {
    log_.Append(chain.at(h));
    if (h >= kv_height_) ApplyBlockToState(chain.at(h));
  }
  log_.Sync();  // the commit barrier: blocks count as durable only now
  durable_height_ = chain.height();
  MaybeSnapshot();
}

void DurableLedger::MaybeSnapshot() {
  if (opts_.snapshot_interval == 0) return;
  if (durable_height_ < last_snapshot_height_ + opts_.snapshot_interval) {
    return;
  }
  // kv_ is exactly the state after block durable_height_-1 here: Persist
  // applies blocks and advances durable_height_ in lockstep.
  std::sort(dirty_.begin(), dirty_.end());
  dirty_.erase(std::unique(dirty_.begin(), dirty_.end()), dirty_.end());
  EncodeSnapshotDelta(snapshot_, dirty_, kv_, durable_height_, next_version_,
                      &snapshot_scratch_);
  snapshot_.swap(snapshot_scratch_);
  dirty_.clear();
  WriteSnapshot(fs_, opts_.dir, durable_height_, snapshot_);
  last_snapshot_height_ = durable_height_;
}

DurableLedger::Recovered DurableLedger::RecoverFromImage(
    const sim::FsImage& image, const std::string& dir,
    bool mutate_off_by_one, bool use_snapshot) {
  Recovered rec;
  const std::string no_log;
  auto log_it = image.find(LogPath(dir));
  const std::string& data = log_it == image.end() ? no_log : log_it->second;

  LogScan scan = ScanLog(data);
  if (mutate_off_by_one && scan.torn && scan.valid_bytes > 0) {
    // Mirror of BlockLog::RecoverAndTruncate's canary bug, as a pure
    // function: cut one byte into the last valid frame and rescan.
    scan = ScanLog(data.substr(0, scan.valid_bytes - 1));
  }
  rec.blocks = std::move(scan.blocks);
  rec.height = rec.blocks.size();

  KvStore kv;
  uint64_t replay_from = 0;
  if (use_snapshot) {
    std::vector<uint64_t> heights;
    auto man_it = image.find(ManifestPath(dir));
    if (man_it != image.end()) DecodeManifest(man_it->second, &heights);
    for (uint64_t h : heights) {  // newest first; fall back down the list
      if (h > rec.height) continue;  // snapshot ahead of the log prefix
      auto snap_it = image.find(SnapshotPath(dir, h));
      if (snap_it == image.end()) continue;
      SnapshotData snap;
      if (!DecodeSnapshot(snap_it->second, &snap)) continue;  // CRC-invalid
      RebuildFromSnapshot(snap, &kv);
      rec.next_version = snap.next_version;
      rec.used_snapshot = true;
      rec.snapshot_height = h;
      replay_from = h;
      break;
    }
  }
  for (uint64_t h = replay_from; h < rec.height; ++h) {
    for (const txn::Transaction& t : rec.blocks[h].txns) {
      txn::ApplyCommitted(t, &kv, &rec.next_version);
    }
  }
  rec.state = SerializeLatestState(kv);
  return rec;
}

DurableLedger::RecoveryReport DurableLedger::RecoverAndResync(
    const ledger::Chain& chain) {
  RecoveryReport report;
  LogScan kept =
      log_.RecoverAndTruncate(opts_.mutate_recovery, &report.valid_frames);
  report.recovered_height = kept.blocks.size();
  durable_height_ = kept.blocks.size();

  // The replica's in-memory chain stands in for state transfer: re-append
  // what the crash (or the mutated truncation) lost and restore the
  // barrier. kv_ tracks the chain, not the log, so it needs no rewind.
  report.resynced_blocks =
      chain.height() > durable_height_ ? chain.height() - durable_height_ : 0;
  Persist(chain);
  return report;
}

}  // namespace pbc::store
