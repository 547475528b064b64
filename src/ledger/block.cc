#include "ledger/block.h"

namespace pbc::ledger {

crypto::Hash256 BlockHeader::Hash() const {
  crypto::Sha256 h;
  h.Update(std::string("pbc-block-header"));
  h.UpdateU64(height);
  h.Update(prev_hash);
  h.Update(txn_root);
  h.UpdateU64(timestamp_us);
  return h.Finalize();
}

std::vector<crypto::Hash256> Block::TxnDigests() const {
  std::vector<crypto::Hash256> digests;
  digests.reserve(txns.size());
  for (const auto& t : txns) digests.push_back(t.Digest());
  return digests;
}

Block Block::Make(uint64_t height, const crypto::Hash256& prev_hash,
                  txn::TxnList txns, uint64_t timestamp_us) {
  Block b;
  b.header.height = height;
  b.header.prev_hash = prev_hash;
  b.header.timestamp_us = timestamp_us;
  b.txns = std::move(txns);
  crypto::MerkleTree tree(b.TxnDigests());
  b.header.txn_root = tree.root();
  return b;
}

bool Block::VerifyTxnRoot() const {
  crypto::MerkleTree tree(TxnDigests());
  return tree.root() == header.txn_root;
}

VerifiedBlock VerifiedBlock::Seal(uint64_t height,
                                  const crypto::Hash256& prev_hash,
                                  txn::TxnList txns,
                                  uint64_t timestamp_us) {
  return VerifiedBlock(std::make_shared<const Block>(
      Block::Make(height, prev_hash, std::move(txns), timestamp_us)));
}

std::optional<VerifiedBlock> VerifiedBlock::Verify(
    std::shared_ptr<const Block> body) {
  if (body == nullptr || !body->VerifyTxnRoot()) return std::nullopt;
  return VerifiedBlock(std::move(body));
}

}  // namespace pbc::ledger
