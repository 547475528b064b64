// Content-addressed block body store.
//
// Consensus orders compact block *hashes*; the bodies travel beside the
// protocol (broadcast at proposal time, fetched on demand) and land here,
// keyed by header hash. A body is one immutable object shared from the
// proposer's seal through every message and every replica's store, so
// nothing here copies one. Put() verifies a new body against its own
// header, so a fabricated or corrupted body can never alias an honest
// hash, and stores it as a `ledger::VerifiedBlock`. A body re-delivered
// under a stored hash is accepted without a Merkle build: the stored
// object itself on sight, any other object only if its txns equal the
// stored ones.
#ifndef PBC_BLOCK_STORE_H_
#define PBC_BLOCK_STORE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>

#include "crypto/sha256.h"
#include "ledger/block.h"

namespace pbc::block {

class BlockStore {
 public:
  /// Stores `body` keyed by its header hash after verifying the header
  /// commits to the body (Merkle root check), and returns that hash. A
  /// body whose hash is already stored is accepted only if it is the
  /// stored object or its txns equal the stored ones; it replaces nothing.
  /// Returns nullopt, and stores nothing, for a null body or one that fails
  /// either check.
  std::optional<crypto::Hash256> Put(
      const std::shared_ptr<const ledger::Block>& body);

  /// The stored body for `hash`, or nullptr. Pointers stay valid for the
  /// store's lifetime (bodies are never removed).
  const ledger::VerifiedBlock* Get(const crypto::Hash256& hash) const;

  bool Contains(const crypto::Hash256& hash) const {
    return bodies_.count(hash) > 0;
  }
  size_t size() const { return bodies_.size(); }

 private:
  // Ordered map: deterministic iteration should anyone ever walk it.
  std::map<crypto::Hash256, ledger::VerifiedBlock> bodies_;
};

}  // namespace pbc::block

#endif  // PBC_BLOCK_STORE_H_
