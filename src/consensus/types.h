// Shared vocabulary for the consensus protocols (§2.2 of the survey):
// batches, cluster configuration, and quorum arithmetic.
#ifndef PBC_CONSENSUS_TYPES_H_
#define PBC_CONSENSUS_TYPES_H_

#include <cstdint>
#include <vector>

#include "crypto/sha256.h"
#include "sim/network.h"
#include "txn/transaction.h"

namespace pbc::consensus {

/// \brief The unit replicas agree on: an ordered batch of transactions.
///
/// Consensus orders batches; the hash-chained `ledger::Block` is constructed
/// deterministically at commit time from the agreed batch sequence, so
/// protocols can pipeline agreement without knowing the previous block hash.
///
/// Two wire forms coexist (DESIGN.md §11):
///  * inline — `txns` carries the payload (the original per-txn path);
///  * block-ref — `block_ref` is set, `txns` stays empty, and the batch
///    names a sealed block by `block_hash`. The body is disseminated
///    beside the protocol and fetched into each replica's block store;
///    consensus itself only moves the 32-byte hash.
struct Batch {
  txn::TxnList txns;

  bool block_ref = false;
  crypto::Hash256 block_hash;   ///< header hash of the referenced block
  uint32_t ref_txn_count = 0;   ///< txns in the referenced block's body

  /// Content digest. For a block-ref batch this IS the block hash — the
  /// compact value the protocol orders.
  crypto::Hash256 Digest() const;

  bool empty() const { return block_ref ? ref_txn_count == 0 : txns.empty(); }
  size_t size() const { return block_ref ? ref_txn_count : txns.size(); }

  /// Bytes this batch contributes to a carrying message: a block-ref is a
  /// 32-byte hash + count, an inline batch its txns' encoded bytes.
  size_t WireBytes() const { return block_ref ? 40 : txn::EncodedSize(txns); }
};

/// \brief Block-pipeline batching policy (off by default: inline batches).
struct BlockCutConfig {
  bool enabled = false;
  /// Size cut: seal a block once this many txns are pending.
  size_t max_txns = 100;
  /// Timer cut: seal a partial block once the oldest pending txn has
  /// waited this long (µs, simulated). 0 disables the timer cut.
  sim::Time max_delay_us = 5000;
};

/// \brief Static description of one consensus cluster.
struct ClusterConfig {
  /// Replica node ids, in canonical order (defines primary rotation).
  std::vector<sim::NodeId> replicas;

  /// Max faulty replicas tolerated. BFT protocols need n >= 3f+1
  /// (2f+1 with attested logs); CFT protocols need n >= 2f+1.
  uint32_t f = 1;

  /// Max transactions per proposed batch (inline mode).
  size_t batch_size = 100;

  /// Block pipeline: when enabled, proposers seal pool txns into
  /// hash-chained blocks under these cut rules and consensus orders the
  /// block hashes instead of inline payloads.
  BlockCutConfig block;

  /// Leader/progress timeout before a view/round/term change (µs).
  sim::Time timeout_us = 60000;

  /// PBFT checkpoint interval (sequence numbers).
  uint64_t checkpoint_interval = 64;

  /// Voting power per replica (Tendermint). Empty = equal weights.
  std::vector<uint64_t> voting_power;

  /// TEST-ONLY fault injection: lowers BftQuorum() and MajorityQuorum()
  /// by this many votes, and no other threshold. PBFT's commit, checkpoint
  /// and view-change quorums, Raft and Paxos read it; HotStuff's n - f,
  /// Tendermint's SuperMajority, PBFT's 2f prepare count and every f + 1
  /// join rule do not. Production configs must leave it 0 — a slack of 1
  /// re-creates the classic off-by-one quorum bug (accepting 2f votes
  /// where 2f+1 are required), which the src/check invariant sweeps must
  /// detect.
  uint32_t quorum_slack_for_test = 0;

  size_t n() const { return replicas.size(); }
  /// Smallest BFT quorum: 2f+1 (minus the test-only slack, floored at 1).
  size_t BftQuorum() const {
    size_t q = 2 * static_cast<size_t>(f) + 1;
    return q > quorum_slack_for_test ? q - quorum_slack_for_test : 1;
  }
  /// Majority quorum for CFT protocols (minus the test-only slack).
  size_t MajorityQuorum() const {
    size_t q = replicas.size() / 2 + 1;
    return q > quorum_slack_for_test ? q - quorum_slack_for_test : 1;
  }
  /// Index of a node in `replicas`, or n() if absent.
  size_t IndexOf(sim::NodeId id) const;
  uint64_t TotalPower() const;
  uint64_t PowerOf(size_t replica_index) const;
};

/// \brief Byzantine behavior injected into a replica (tests + E12).
enum class ByzantineMode {
  kHonest,
  kSilent,      ///< participates in nothing (crash-like but undetectable)
  kEquivocate,  ///< as leader, proposes different batches to different peers
  kVoteBoth,    ///< votes for every proposal it sees, even conflicting ones
};

}  // namespace pbc::consensus

#endif  // PBC_CONSENSUS_TYPES_H_
