// Deterministic in-memory filesystem: the only I/O surface the durable
// storage layer (src/store) is allowed to touch (enforced by detlint's
// `raw-filesystem` rule). Every file has *current* content (what the
// writer sees) and *durable* content (what survives a crash), so fsync
// semantics, torn writes, and lost flushes are modeled explicitly
// instead of trusting the host OS.
//
// Storage model: durable content is kept as a synced prefix of current
// content — `current[0, synced)` — so Append and Fsync are O(appended
// bytes) and O(1), and each file holds one byte string. Only a WriteFile
// or Truncate that would overwrite synced bytes first copies the durable
// bytes out into a detached string, which the next honoured Fsync drops.
//
// Determinism argument: the shim holds no wall-clock state and performs
// no host I/O. Its only nondeterministic-looking behavior — how many
// durable tail bytes a torn-write crash destroys — is drawn from its own
// seeded Rng, and crashes iterate files in sorted path order, so a run
// is a pure function of (seed, operation sequence).
//
// Fault surface (driven by the nemesis schedule, see check/nemesis.h):
//  * Crash(prefix): revert every file under the prefix to its durable
//    content. If a tear is armed, the power cut also tears each file's
//    tail: a seeded number of bytes (bounded by tear_ppm millionths of
//    the file's last 4 KiB) vanishes from the end of the *durable*
//    content — the drive's write cache acknowledged the flush but lost
//    power mid-destage, the classic torn sector write. Recovery then
//    faces a partial trailing frame (log) or a CRC-invalid file
//    (snapshot/manifest) and must truncate or fall back.
//  * SetLoseFlushes(prefix, true): fsyncs still report success but stop
//    advancing durable content (a lying disk / dropped FLUSH command).
//    The per-prefix `fsyncs_dropped` counter lets checkers distinguish
//    "the disk lied" from "the store forgot to sync".
//  * Rename is journaled like ext4 metadata: the name change itself
//    survives a crash, but content that was never fsynced under the old
//    name does not — the classic rename-before-sync zero-length-file
//    hazard, which the snapshot protocol must defend against with an
//    fsync barrier before rename-into-place.
#ifndef PBC_SIM_FS_H_
#define PBC_SIM_FS_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"

namespace pbc::sim {

/// \brief Read-only snapshot of durable content: path -> bytes. What a
/// machine would find on its platter after losing power right now.
using FsImage = std::map<std::string, std::string>;

class Fs {
 public:
  explicit Fs(uint64_t seed) : rng_(seed) {}

  // --- writer-facing I/O (operates on current content) ---------------------

  /// Appends bytes to the file (creating it if absent).
  void Append(const std::string& path, const std::string& bytes);

  /// Replaces the file's current content (creating it if absent).
  void WriteFile(const std::string& path, std::string bytes);

  /// Reads current content. Returns false if the file does not exist.
  bool Read(const std::string& path, std::string* out) const;

  bool Exists(const std::string& path) const;
  uint64_t Size(const std::string& path) const;

  /// Shrinks current content to `new_size` bytes (no-op if already
  /// smaller). Durability of the truncation requires a subsequent Fsync.
  void Truncate(const std::string& path, uint64_t new_size);

  /// Flush barrier. Promotes current content to durable — unless flushes
  /// are being lost for the path's prefix, in which case the call still
  /// *reports* success (the disk lies) but durable content is unchanged
  /// and the drop is counted. Returns false only if the file is missing.
  bool Fsync(const std::string& path);

  /// Atomically renames `from` to `to` (replacing `to` if present). The
  /// name change is durable immediately (journaled metadata); content
  /// durability is whatever `from` had fsynced.
  void Rename(const std::string& from, const std::string& to);

  /// Removes the file (both views) if present.
  void Remove(const std::string& path);

  /// Paths of existing files starting with `prefix`, sorted.
  std::vector<std::string> List(const std::string& prefix) const;

  // --- fault surface (nemesis-facing) ---------------------------------------

  /// Arms a torn write for the next Crash() touching `prefix`: each
  /// file's durable tail loses up to `tear_ppm` millionths of its last
  /// 4 KiB (exact count drawn from the shim's seeded Rng, per file in
  /// sorted path order). Consumed by that crash; ppm 0 disarms.
  void SetPendingTear(const std::string& prefix, uint64_t tear_ppm);

  /// Starts/stops dropping fsyncs for files under `prefix`.
  void SetLoseFlushes(const std::string& prefix, bool lose);

  /// Power-loss for every file under `prefix` (sorted path order):
  /// current content reverts to durable content, with the armed tear —
  /// if any — applied to each durable tail first.
  void Crash(const std::string& prefix);

  // --- checker-facing introspection (read-only, RNG-free) -------------------

  /// Durable content of every file under `prefix`. Drawing the image
  /// consumes no randomness, so periodic shadow recoveries never perturb
  /// the run's RNG stream.
  FsImage DurableImage(const std::string& prefix) const;

  /// Fsyncs acknowledged-but-dropped for `prefix` since construction.
  uint64_t fsyncs_dropped(const std::string& prefix) const;

  /// Files that actually lost durable bytes to torn-write crashes under
  /// `prefix`. Checkers use this (with fsyncs_dropped) to gate beliefs:
  /// a store may legitimately "know" more than the platter holds only
  /// after the disk lied to it.
  uint64_t tears(const std::string& prefix) const;

  uint64_t crashes() const { return crashes_; }

 private:
  // Durable content is `detached` when set, else the prefix
  // `current[0, synced)`.
  struct File {
    std::string current;
    uint64_t synced = 0;
    std::optional<std::string> detached;

    uint64_t durable_size() const {
      return detached ? detached->size() : synced;
    }
    std::string durable() const {
      return detached ? *detached : current.substr(0, synced);
    }
    /// Copies the durable bytes out before current content below
    /// `synced` is overwritten.
    void Detach() {
      if (!detached) detached = current.substr(0, synced);
    }
  };

  bool LosingFlushes(const std::string& path) const;

  std::map<std::string, File> files_;
  std::map<std::string, bool> lose_flushes_;      // prefix -> lying disk?
  std::map<std::string, uint64_t> pending_tear_;  // prefix -> tear ppm
  std::map<std::string, uint64_t> dropped_;       // prefix -> dropped fsyncs
  std::map<std::string, uint64_t> tears_;         // prefix -> torn files
  Rng rng_;
  uint64_t crashes_ = 0;
};

}  // namespace pbc::sim

#endif  // PBC_SIM_FS_H_
