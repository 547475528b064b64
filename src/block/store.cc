#include "block/store.h"

namespace pbc::block {

bool BlockStore::Put(const ledger::Block& body) {
  crypto::Hash256 hash = body.header.Hash();
  auto it = bodies_.find(hash);
  // Equal header hashes mean equal headers, and the stored body was
  // verified against that header, so an equal txn list is the same body.
  if (it != bodies_.end()) return it->second.txns == body.txns;
  if (!body.VerifyTxnRoot()) return false;
  bodies_.emplace(hash, body);
  return true;
}

const ledger::Block* BlockStore::Get(const crypto::Hash256& hash) const {
  auto it = bodies_.find(hash);
  return it == bodies_.end() ? nullptr : &it->second;
}

}  // namespace pbc::block
