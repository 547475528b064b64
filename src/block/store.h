// Content-addressed block body store.
//
// Consensus orders compact block *hashes*; the bodies travel beside the
// protocol (broadcast at proposal time, fetched on demand) and land here,
// keyed by header hash. Put() verifies a new body against its own header,
// so a fabricated or corrupted body can never alias an honest hash; a body
// re-delivered under a stored hash is compared with the stored one instead
// of being re-hashed.
#ifndef PBC_BLOCK_STORE_H_
#define PBC_BLOCK_STORE_H_

#include <cstdint>
#include <map>

#include "crypto/sha256.h"
#include "ledger/block.h"

namespace pbc::block {

class BlockStore {
 public:
  /// Inserts a copy of `body` keyed by its header hash after verifying the
  /// header commits to the body (Merkle root check). A body whose hash is
  /// already stored is accepted only if it equals the stored body, with no
  /// Merkle tree rebuilt. Returns false — and stores nothing — for a body
  /// that fails either check; returns true for both fresh inserts and
  /// idempotent re-inserts.
  bool Put(const ledger::Block& body);

  /// The stored body for `hash`, or nullptr. Pointers stay valid for the
  /// store's lifetime (bodies are never removed).
  const ledger::Block* Get(const crypto::Hash256& hash) const;

  bool Contains(const crypto::Hash256& hash) const {
    return bodies_.count(hash) > 0;
  }
  size_t size() const { return bodies_.size(); }

 private:
  // Ordered map: deterministic iteration should anyone ever walk it.
  std::map<crypto::Hash256, ledger::Block> bodies_;
};

}  // namespace pbc::block

#endif  // PBC_BLOCK_STORE_H_
