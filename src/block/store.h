// Content-addressed block body store.
//
// Consensus orders compact block *hashes*; the bodies travel beside the
// protocol (broadcast at proposal time, fetched on demand) and land here,
// keyed by header hash. A body is one immutable `ledger::VerifiedBlock`
// shared from the proposer's seal through every message and every
// replica's store, so nothing here copies one, and its txn root is
// computed once, at the seal: Put(VerifiedBlock) builds no Merkle tree.
// The raw Put(shared_ptr<const Block>) is the entry point for a body
// nothing has vouched for; it verifies the body against its own header
// first, so a fabricated or corrupted body can never alias an honest hash.
// Both follow one redelivery rule: a body under a stored hash is accepted
// without a Merkle build if it is the stored object itself or its txns
// equal the stored ones, and otherwise rejected; it replaces nothing.
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
  /// Stores `body` keyed by its header hash and returns that hash. A body
  /// whose hash is already stored is subject to the redelivery rule (see
  /// the file comment); nullopt, and nothing stored, if it fails it.
  std::optional<crypto::Hash256> Put(const ledger::VerifiedBlock& body);
  /// As Put(VerifiedBlock) for a body not yet verified: a new hash is
  /// stored only if the header commits to the body (Merkle root check).
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
