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

namespace {

void PutHash(std::string* out, const crypto::Hash256& h) {
  out->append(reinterpret_cast<const char*>(h.bytes.data()), h.bytes.size());
}

bool GetHash(Decoder* dec, crypto::Hash256* h) {
  if (dec->remaining() < h->bytes.size()) return false;
  for (size_t i = 0; i < h->bytes.size(); ++i) {
    h->bytes[i] = static_cast<uint8_t>((*dec->data)[dec->pos + i]);
  }
  dec->pos += h->bytes.size();
  return true;
}

}  // namespace

void BlockHeader::EncodeTo(std::string* out) const {
  PutU64(out, height);
  PutHash(out, prev_hash);
  PutHash(out, txn_root);
  PutU64(out, timestamp_us);
}

bool BlockHeader::DecodeFrom(Decoder* dec) {
  return dec->GetU64(&height) && GetHash(dec, &prev_hash) &&
         GetHash(dec, &txn_root) && dec->GetU64(&timestamp_us);
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

VerifiedBlock::VerifiedBlock(std::shared_ptr<const Block> body)
    : body_(std::move(body)),
      encoded_bytes_(BlockHeader::kEncodedBytes + sizeof(uint32_t) +
                     txn::EncodedSize(body_->txns)) {}

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
