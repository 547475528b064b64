// The append-only hash-chained ledger replicated on every node.
#ifndef PBC_LEDGER_CHAIN_H_
#define PBC_LEDGER_CHAIN_H_

#include <vector>

#include "common/result.h"
#include "ledger/block.h"

namespace pbc::ledger {

/// \brief A hash-chained sequence of blocks.
///
/// `Append` seals each block at the tip, so height, prev-hash linkage and
/// the txn Merkle root hold by construction; `Audit` re-verifies the whole
/// chain so any post-hoc tampering with a stored block is detected.
class Chain {
 public:
  /// Appends `Block::Make(height(), TipHash(), txns)`, which builds the
  /// txns' Merkle tree.
  void Append(txn::TxnList txns);
  /// Appends the same block as `Append(body.body().txns)` without building
  /// a Merkle tree: the chain block takes the txn root the body was
  /// verified against, and shares the body's txn list.
  void Append(const VerifiedBlock& body);

  /// Full integrity audit: recompute every link and Merkle root.
  Status Audit() const;

  size_t height() const { return blocks_.size(); }
  bool empty() const { return blocks_.empty(); }
  const Block& at(size_t i) const { return blocks_[i]; }
  const std::vector<Block>& blocks() const { return blocks_; }

  /// Hash of the last block (Zero for an empty chain — the genesis parent).
  crypto::Hash256 TipHash() const;

  /// Proof that transaction `txn_index` of block `height` is included.
  Result<crypto::MerkleProof> ProveInclusion(size_t block_height,
                                             size_t txn_index) const;

  /// Verifies an inclusion proof against a block header.
  static bool VerifyInclusion(const BlockHeader& header,
                              const crypto::Hash256& txn_digest,
                              const crypto::MerkleProof& proof);

  /// True iff both chains contain identical block hashes (replica
  /// agreement check used by consensus property tests). A prefix match is
  /// not enough: lengths must agree too.
  bool SameAs(const Chain& other) const;

  /// True iff the shorter chain is a prefix of the longer one (the safety
  /// property consensus must preserve between replicas at different
  /// heights).
  bool PrefixConsistentWith(const Chain& other) const;

  /// Test hook: direct mutable access, bypassing invariants (used by
  /// tamper-detection tests only).
  Block* MutableBlockForTest(size_t i) { return &blocks_[i]; }

 private:
  std::vector<Block> blocks_;
};

}  // namespace pbc::ledger

#endif  // PBC_LEDGER_CHAIN_H_
