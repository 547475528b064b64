#include "block/store.h"

namespace pbc::block {

std::optional<crypto::Hash256> BlockStore::Put(
    const std::shared_ptr<const ledger::Block>& body) {
  if (body == nullptr) return std::nullopt;
  crypto::Hash256 hash = body->header.Hash();
  auto it = bodies_.find(hash);
  if (it != bodies_.end()) {
    // Equal header hashes mean equal headers, and the stored body was
    // verified against that header, so an equal txn list is the same body.
    const ledger::Block& stored = it->second.body();
    if (&stored == body.get() || stored.txns == body->txns) return hash;
    return std::nullopt;
  }
  std::optional<ledger::VerifiedBlock> verified =
      ledger::VerifiedBlock::Verify(body);
  if (!verified) return std::nullopt;
  bodies_.emplace(hash, std::move(*verified));
  return hash;
}

const ledger::VerifiedBlock* BlockStore::Get(
    const crypto::Hash256& hash) const {
  auto it = bodies_.find(hash);
  return it == bodies_.end() ? nullptr : &it->second;
}

}  // namespace pbc::block
