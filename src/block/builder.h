// Deterministic block cutting and sealing at the leader/proposer.
//
// Hyperledger Fabric's ordering service and every system BLOCKBENCH
// measures cut *blocks* out of the pending transaction stream under two
// rules — a size cut (block is full) and a timer cut (oldest pending
// transaction has waited too long) — because block size is the dominant
// throughput knob of the whole pipeline. `CutRules` states those rules
// over simulated time: a cut decision is a pure function of (pending
// count, oldest arrival, now), so a seeded run cuts byte-identical blocks
// on every replay. The pool they cut from is `consensus::Replica`'s.
#ifndef PBC_BLOCK_BUILDER_H_
#define PBC_BLOCK_BUILDER_H_

#include <vector>

#include "ledger/block.h"
#include "sim/simulator.h"
#include "txn/transaction.h"

namespace pbc::block {

/// \brief The two Fabric-style batch-cut rules.
struct CutRules {
  /// Size cut: a block is cut as soon as this many txns are pending.
  size_t max_txns = 100;
  /// Timer cut: a partial block is cut once the oldest pending txn has
  /// waited this long (µs of simulated time). 0 disables the timer cut.
  sim::Time max_delay_us = 5000;

  /// Pure cut predicate over the caller's pool.
  bool CutDue(size_t pending, sim::Time oldest_arrival_us,
              sim::Time now_us) const {
    if (pending == 0) return false;
    if (pending >= max_txns) return true;
    return max_delay_us > 0 && now_us >= oldest_arrival_us &&
           now_us - oldest_arrival_us >= max_delay_us;
  }
};

/// \brief Seals a cut into a block body.
class BlockBuilder {
 public:
  /// Seals `txns` into a hash-chained block body. `height`/`prev_hash`
  /// position the block; `timestamp_us` is the (simulated) cut time. The
  /// header hash is the identity consensus orders in place of the body.
  static ledger::Block Seal(uint64_t height, const crypto::Hash256& prev_hash,
                            std::vector<txn::Transaction> txns,
                            sim::Time timestamp_us);
};

}  // namespace pbc::block

#endif  // PBC_BLOCK_BUILDER_H_
