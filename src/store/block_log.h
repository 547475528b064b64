// Append-only block log over the deterministic filesystem shim.
//
// On-disk format: a sequence of frames, each
//     [u32 payload_len][u32 crc32(payload)][payload = EncodeBlock(...)]
// with all integers little-endian. A frame is valid iff it is complete,
// its CRC matches, its payload decodes (including the Merkle-root check)
// and its block chains onto the previous frame's block (height + prev
// hash). Scanning stops at the first invalid frame: everything before it
// is the recovered prefix, everything from it on is a torn tail to be
// truncated. Commit durability = Append + Sync at the commit point.
#ifndef PBC_STORE_BLOCK_LOG_H_
#define PBC_STORE_BLOCK_LOG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "ledger/block.h"
#include "sim/fs.h"

namespace pbc::store {

/// Wraps `payload` in a length+CRC frame.
std::string EncodeFrame(const std::string& payload);

/// Result of scanning raw log bytes for the valid frame prefix.
struct LogScan {
  std::vector<ledger::Block> blocks;  ///< blocks of the valid prefix
  uint64_t valid_bytes = 0;           ///< length of the valid prefix
  bool torn = false;                  ///< bytes remained past the prefix
};

/// Scans `data` frame by frame, accumulating the valid chained prefix.
LogScan ScanLog(const std::string& data);

class BlockLog {
 public:
  BlockLog(sim::Fs* fs, std::string path)
      : fs_(fs), path_(std::move(path)) {}

  /// Appends one framed block (durability requires a later Sync()).
  void Append(const ledger::Block& block);

  /// Fsync barrier on the log file.
  void Sync();

  /// Post-crash repair: scan, truncate the torn tail at the last valid
  /// frame boundary, fsync, and return the surviving prefix.
  ///
  /// `mutate_off_by_one` is the recovery mutation canary (`check_runner
  /// --mutate-recovery`): when a torn tail is truncated, cut one byte too
  /// far — into the last valid frame — silently losing an fsynced block.
  /// The durable-synced-commit invariant must catch this.
  ///
  /// The log is scanned once; only a mutated cut is rescanned. If
  /// `valid_frames` is non-null it receives the frame count of the valid
  /// prefix before any cut.
  LogScan RecoverAndTruncate(bool mutate_off_by_one,
                             uint64_t* valid_frames = nullptr);

  const std::string& path() const { return path_; }

 private:
  sim::Fs* fs_;
  std::string path_;
};

}  // namespace pbc::store

#endif  // PBC_STORE_BLOCK_LOG_H_
