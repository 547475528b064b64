#include "block/builder.h"

namespace pbc::block {

ledger::Block BlockBuilder::Seal(uint64_t height,
                                 const crypto::Hash256& prev_hash,
                                 std::vector<txn::Transaction> txns,
                                 sim::Time timestamp_us) {
  return ledger::Block::Make(height, prev_hash, std::move(txns),
                             timestamp_us);
}

}  // namespace pbc::block
