// World-state snapshots: periodic checkpoints of the KvStore's
// latest state so recovery replays a log *tail* instead of the whole log.
//
// Protocol (the classic temp + fsync + rename-into-place dance):
//   1. write `snap-<height>.tmp` (one CRC frame holding the encoded state)
//   2. fsync the tmp file                 — content is durable
//   3. rename tmp -> `snap-<height>`      — name change is journaled
//   4. rewrite + fsync + rename `MANIFEST` listing heights newest-first
// Step 2 before step 3 matters: the sim::Fs models the ext4 hazard where
// a rename survives a crash but never-fsynced content does not, which
// leaves a CRC-invalid snapshot file. Recovery therefore validates each
// manifest entry and falls back — older snapshot, else full log replay —
// rather than trusting names. The manifest keeps the newest two entries
// so there is always a fallback while the newest is being written.
#ifndef PBC_STORE_SNAPSHOT_H_
#define PBC_STORE_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "sim/fs.h"
#include "store/kv_store.h"

namespace pbc::store {

/// Decoded snapshot contents: latest state at a block height.
struct SnapshotData {
  uint64_t height = 0;          ///< number of blocks reflected
  uint64_t next_version = 1;    ///< writer's next commit version
  uint64_t last_committed = 0;  ///< kv.last_committed() at capture
  /// (key, value, version) triples in key order.
  struct Entry {
    std::string key;
    std::string value;
    uint64_t version = 0;
  };
  std::vector<Entry> entries;
};

/// Captures `kv`'s latest state (plus writer bookkeeping) at `height`.
SnapshotData CaptureSnapshot(const KvStore& kv, uint64_t height,
                             uint64_t next_version);

/// CRC-framed snapshot file content / its inverse (false on corruption).
/// The writer builds files with EncodeSnapshotDelta; EncodeSnapshot of a
/// CaptureSnapshot is the full encoding it must byte-equal.
std::string EncodeSnapshot(const SnapshotData& snap);
bool DecodeSnapshot(const std::string& file_content, SnapshotData* out);

/// Builds `kv`'s snapshot file content at `height` into `*out` by merging
/// `prev` — an earlier EncodeSnapshotDelta output for the same store, or
/// empty — with `dirty`, the keys written since, sorted and unique: runs
/// of `prev` entries whose keys are not dirty are copied verbatim, each
/// dirty key is encoded from kv.Latest(key), and dropped when that is
/// nullptr. When `dirty` holds every key written since `prev` was built,
/// the result byte-equals
/// EncodeSnapshot(CaptureSnapshot(kv, height, next_version)).
void EncodeSnapshotDelta(const std::string& prev,
                         const std::vector<Key>& dirty, const KvStore& kv,
                         uint64_t height, uint64_t next_version,
                         std::string* out);

/// Rebuilds a KvStore whose latest state equals the captured one:
/// entries grouped by version, applied in ascending version order.
void RebuildFromSnapshot(const SnapshotData& snap, KvStore* kv);

/// CRC-framed manifest content: snapshot heights, newest first.
std::string EncodeManifest(const std::vector<uint64_t>& heights);
bool DecodeManifest(const std::string& file_content,
                    std::vector<uint64_t>* heights);

/// File naming under a node directory (`dir` has no trailing slash).
std::string SnapshotPath(const std::string& dir, uint64_t height);
std::string ManifestPath(const std::string& dir);

/// Runs the full write protocol against `fs` for the encoded snapshot
/// `file_content` at `height`, pruning manifest entries beyond the newest
/// two (older snapshot files are removed).
void WriteSnapshot(sim::Fs* fs, const std::string& dir, uint64_t height,
                   std::string file_content);

}  // namespace pbc::store

#endif  // PBC_STORE_SNAPSHOT_H_
