#include "block/store.h"

namespace pbc::block {
namespace {

// The redelivery rule for `body` arriving under `hash`, which already holds
// `stored`. Equal header hashes mean equal headers, and the stored body was
// verified against that header, so an equal txn list is the same body.
std::optional<crypto::Hash256> Redelivered(const crypto::Hash256& hash,
                                           const ledger::Block& stored,
                                           const ledger::Block& body) {
  if (&stored == &body || stored.txns == body.txns) return hash;
  return std::nullopt;
}

}  // namespace

std::optional<crypto::Hash256> BlockStore::Put(
    const ledger::VerifiedBlock& body) {
  crypto::Hash256 hash = body.body().header.Hash();
  auto [it, fresh] = bodies_.try_emplace(hash, body);
  if (fresh) return hash;
  return Redelivered(hash, it->second.body(), body.body());
}

std::optional<crypto::Hash256> BlockStore::Put(
    const std::shared_ptr<const ledger::Block>& body) {
  if (body == nullptr) return std::nullopt;
  crypto::Hash256 hash = body->header.Hash();
  if (const ledger::VerifiedBlock* stored = Get(hash)) {
    return Redelivered(hash, stored->body(), *body);
  }
  std::optional<ledger::VerifiedBlock> verified =
      ledger::VerifiedBlock::Verify(body);
  if (!verified) return std::nullopt;
  return Put(*verified);
}

const ledger::VerifiedBlock* BlockStore::Get(
    const crypto::Hash256& hash) const {
  auto it = bodies_.find(hash);
  return it == bodies_.end() ? nullptr : &it->second;
}

}  // namespace pbc::block
