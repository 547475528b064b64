#include "ledger/chain.h"

namespace pbc::ledger {

void Chain::Append(txn::TxnList txns) {
  blocks_.push_back(Block::Make(height(), TipHash(), std::move(txns)));
}

void Chain::Append(const VerifiedBlock& body) {
  const Block& b = body.body();
  blocks_.push_back(
      Block{{height(), TipHash(), b.header.txn_root, /*timestamp_us=*/0},
            b.txns});
}

Status Chain::Audit() const {
  crypto::Hash256 prev = crypto::Hash256::Zero();
  for (size_t i = 0; i < blocks_.size(); ++i) {
    const Block& b = blocks_[i];
    if (b.header.height != i) {
      return Status::Corruption("height mismatch at block " +
                                std::to_string(i));
    }
    if (b.header.prev_hash != prev) {
      return Status::Corruption("chain linkage broken at block " +
                                std::to_string(i));
    }
    if (!b.VerifyTxnRoot()) {
      return Status::Corruption("merkle root mismatch at block " +
                                std::to_string(i));
    }
    prev = b.header.Hash();
  }
  return Status::OK();
}

crypto::Hash256 Chain::TipHash() const {
  return blocks_.empty() ? crypto::Hash256::Zero()
                         : blocks_.back().header.Hash();
}

Result<crypto::MerkleProof> Chain::ProveInclusion(size_t block_height,
                                                  size_t txn_index) const {
  if (block_height >= blocks_.size()) {
    return Status::InvalidArgument("no such block");
  }
  crypto::MerkleTree tree(blocks_[block_height].TxnDigests());
  return tree.Prove(txn_index);
}

bool Chain::VerifyInclusion(const BlockHeader& header,
                            const crypto::Hash256& txn_digest,
                            const crypto::MerkleProof& proof) {
  return crypto::MerkleTree::Verify(header.txn_root, txn_digest, proof);
}

bool Chain::SameAs(const Chain& other) const {
  if (blocks_.size() != other.blocks_.size()) return false;
  return PrefixConsistentWith(other);
}

bool Chain::PrefixConsistentWith(const Chain& other) const {
  size_t n = std::min(blocks_.size(), other.blocks_.size());
  for (size_t i = 0; i < n; ++i) {
    if (blocks_[i].header.Hash() != other.blocks_[i].header.Hash()) {
      return false;
    }
  }
  return true;
}

}  // namespace pbc::ledger
