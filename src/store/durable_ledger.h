// Per-replica durable ledger: an append-only block log plus periodic
// world-state snapshots, all through the deterministic sim::Fs shim.
//
// Commit path (Persist): every chain block beyond the durable height is
// framed and appended, executed into the internal world-state KvStore
// (txn::ApplyCommitted, the rule the KV model checker also uses, so states
// are comparable byte-for-byte), then a single fsync forms the commit
// barrier; every `snapshot_interval` blocks the state is checkpointed via
// the temp+fsync+rename protocol (snapshot.h). A snapshot is built from the
// previous one plus one store lookup per key written since
// (EncodeSnapshotDelta), so beyond one copy and one CRC of the image its
// cost follows what changed.
//
// Recovery path (RecoverFromImage / RecoverAndResync): scan the log for
// its valid chained prefix, truncate the torn tail, and rebuild state
// from the newest *valid* snapshot at or below the recovered height plus
// the log tail — falling back to older snapshots and finally to full log
// replay. RecoverAndResync then re-appends the blocks the crash lost
// from the replica's in-memory chain (the stand-in for consensus state
// transfer until PBFT checkpoint transfer lands).
#ifndef PBC_STORE_DURABLE_LEDGER_H_
#define PBC_STORE_DURABLE_LEDGER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "ledger/chain.h"
#include "sim/fs.h"
#include "store/block_log.h"
#include "store/kv_store.h"
#include "store/snapshot.h"

namespace pbc::store {

class DurableLedger {
 public:
  struct Options {
    std::string dir;                 ///< node directory, e.g. "n0"
    uint64_t snapshot_interval = 2;  ///< snapshot every N blocks
    bool mutate_recovery = false;    ///< --mutate-recovery canary bug
  };

  /// State reconstructed from a durable image, plus how it got there.
  struct Recovered {
    uint64_t height = 0;          ///< blocks recovered from the log
    std::vector<ledger::Block> blocks;
    bool used_snapshot = false;
    uint64_t snapshot_height = 0;
    uint64_t next_version = 1;    ///< writer bookkeeping to resume with
    std::string state;            ///< SerializeLatestState of the rebuild
  };

  /// What a post-crash RecoverAndResync actually did.
  struct RecoveryReport {
    uint64_t valid_frames = 0;      ///< valid prefix by a *correct* scan
    uint64_t recovered_height = 0;  ///< blocks the production path kept
    uint64_t resynced_blocks = 0;   ///< re-appended from the chain
  };

  DurableLedger(sim::Fs* fs, Options opts);

  /// Persists every block beyond the durable height: append frames,
  /// apply transactions to the world state, fsync (the commit barrier),
  /// snapshot on interval boundaries.
  void Persist(const ledger::Chain& chain);

  /// Blocks currently durable in the log (past the last fsync barrier).
  uint64_t durable_height() const { return durable_height_; }

  const std::string& log_path() const { return log_.path(); }

  /// Pure recovery over a durable image (no filesystem mutation, no RNG):
  /// what a fresh process would reconstruct from `image` for `dir`. With
  /// `use_snapshot` false the snapshot/manifest files are ignored and
  /// state comes from full log replay — the reference the
  /// snapshot-convergence invariant compares against.
  static Recovered RecoverFromImage(const sim::FsImage& image,
                                    const std::string& dir,
                                    bool mutate_off_by_one,
                                    bool use_snapshot = true);

  /// Post-crash repair on the live filesystem: truncate the torn tail
  /// (through the possibly-mutated path), then re-append the blocks the
  /// crash lost from the replica's in-memory chain and restore the
  /// fsync barrier.
  RecoveryReport RecoverAndResync(const ledger::Chain& chain);

 private:
  void ApplyBlockToState(const ledger::Block& block);
  void MaybeSnapshot();

  sim::Fs* fs_;
  Options opts_;
  BlockLog log_;
  KvStore kv_;                       ///< world state through kv_height_
  uint64_t kv_height_ = 0;           ///< blocks applied to kv_
  uint64_t next_version_ = 1;
  uint64_t durable_height_ = 0;      ///< blocks framed + fsynced in the log
  uint64_t last_snapshot_height_ = 0;
  /// Keys written to kv_ since the last snapshot, once per write (empty
  /// when snapshot_interval is 0); sorted and de-duplicated at a snapshot.
  std::vector<Key> dirty_;
  /// Content of the last snapshot written, and a reused build buffer.
  std::string snapshot_;
  std::string snapshot_scratch_;
};

}  // namespace pbc::store

#endif  // PBC_STORE_DURABLE_LEDGER_H_
