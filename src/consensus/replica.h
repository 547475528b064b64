// Base class shared by all consensus replicas: transaction pool, in-order
// batch delivery, the hash-chained ledger each replica maintains, and the
// block pipeline (body dissemination + fetch) when block mode is enabled.
#ifndef PBC_CONSENSUS_REPLICA_H_
#define PBC_CONSENSUS_REPLICA_H_

#include <functional>
#include <list>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "block/store.h"
#include "consensus/types.h"
#include "crypto/auth.h"
#include "ledger/chain.h"

namespace pbc::consensus {

/// \brief Invoked on each replica when a batch commits (in order).
using CommitListener =
    std::function<void(sim::NodeId replica, uint64_t seq, const Batch&)>;

/// \brief Uniform leadership/progress snapshot across protocols.
///
/// Read-only introspection for observers (the adaptive adversary in
/// `src/check`, dashboards, tests); never consulted by protocol logic, so
/// reading it cannot change a run. Protocols with rotating leadership
/// (pbft, hotstuff, tendermint) always know the proposer for the view
/// they are in; election-based protocols (raft, paxos) only self-report —
/// a follower does not track who leads, so only the leader itself sets
/// `knows_leader`.
struct ReplicaStatus {
  bool is_leader = false;          ///< this replica believes it leads now
  bool knows_leader = false;       ///< leader_index is meaningful
  size_t leader_index = 0;         ///< leader's index in cfg.replicas
  bool knows_next_leader = false;  ///< next_leader_index is meaningful
  size_t next_leader_index = 0;    ///< proposer after one view/round change
  uint64_t view = 0;               ///< view / round / term / ballot round
  uint64_t commit_index = 0;       ///< last in-order delivered sequence
};

/// \brief Block body dissemination: sent by a proposer in the same instant
/// as its block-ref proposal, and by any replica answering a fetch. In a
/// fault-free run each peer gets one per block and fetches none (see
/// EnsureBodyOrFetch). The body is the proposer's sealed `VerifiedBlock`
/// itself, shared, never copied, so a receiver stores it without
/// rebuilding its Merkle tree. It is charged the body's encoded bytes,
/// which the seal measured once (store::EncodeBlock's length); a message
/// without a body is charged the header alone and dropped on arrival.
struct BlockBodyMsg : sim::Typed<BlockBodyMsg> {
  std::optional<ledger::VerifiedBlock> body;
  static constexpr char kType[] = "block-body";
  size_t ByteSize() const override {
    return body ? body->encoded_bytes() : ledger::BlockHeader::kEncodedBytes;
  }
};

/// \brief Pull request for a block body this replica ordered but never
/// received (lost to a crash, partition, or a Byzantine proposer).
struct BlockFetchMsg : sim::Typed<BlockFetchMsg> {
  crypto::Hash256 hash;
  static constexpr char kType[] = "block-fetch";
  size_t ByteSize() const override { return 40; }
};

/// \brief The replica skeleton every protocol shares.
///
/// A protocol writes only its agreement rules: `OnProtocolMessage`
/// (dispatching with `sim::As<T>`), its handlers, and `Status()` when
/// leadership is not a plain rotation (`RotatingStatus`). It calls
/// `DeliverCommitted` with (sequence, batch) pairs; this class buffers
/// out-of-order arrivals, appends non-empty batches to the replica's chain
/// in sequence order, and drops txns that already committed, so
/// re-proposals are deduplicated.
///
/// One table keyed by txn id holds everything the replica knows about a
/// txn: whether a client submitted it here, when it was first submitted,
/// and whether it is pooled, taken by a proposal, or committed. The pool
/// is one FIFO of live txns with their arrival times; the table points at
/// each pooled txn's entry, so a commit removes it in O(1).
///
/// `OnMessage` is the one prelude: a silent replica drops everything,
/// block body/fetch traffic is served here, and the rest reaches
/// `OnProtocolMessage`. Handlers authenticate with `VerifyFrom`, arm
/// epoch-guarded timers with `ArmTimer`, and record view changes with
/// `CountViewChange`.
///
/// Block mode (cfg_.block.enabled): TakeBatch seals pool transactions into
/// a `ledger::VerifiedBlock` under the cut rules (the body's one Merkle
/// build), broadcasts the body, and returns a compact block-ref batch for
/// the protocol to order. Delivery resolves refs through the local block
/// store, stalling (and fetching) when a body has not arrived yet.
/// Body-dependent handlers (client-authenticity checks) guard with
/// `if (!EnsureBodyOrFetch(from, msg, batch)) return;` — the message is
/// parked, fetched for only if its body misses the jitter bound, and
/// re-dispatched through OnMessage when the body lands.
class Replica : public sim::Node {
 public:
  Replica(sim::NodeId id, sim::Network* net, ClusterConfig config,
          crypto::PrivateKey key, const crypto::KeyRegistry* registry);

  /// Adds a client transaction to the local pool (idempotent by txn id).
  /// The pool keeps the pointer: replicas of one cluster share each txn.
  virtual void SubmitTransaction(std::shared_ptr<const txn::Transaction> txn);

  const ledger::Chain& chain() const { return chain_; }
  uint64_t committed_txns() const { return committed_txns_; }
  uint64_t last_delivered_seq() const { return next_deliver_ - 1; }
  size_t pool_size() const { return pool_.size(); }
  /// The pooled txn `id`, or nullptr when it is not in the pool.
  const txn::Transaction* FindPooled(txn::TxnId id) const;
  const block::BlockStore& block_store() const { return blocks_; }
  /// Decided sequences buffered ahead of in-order delivery.
  size_t pending_deliveries() const { return out_of_order_.size(); }
  /// True when the next in-order sequence is decided but its block body
  /// has not arrived yet (delivery is stalled on a fetch).
  bool delivery_stalled_on_body() const {
    auto it = out_of_order_.find(next_deliver_);
    return it != out_of_order_.end() && it->second.block_ref &&
           !it->second.empty() && !blocks_.Contains(it->second.block_hash);
  }

  void set_commit_listener(CommitListener listener) {
    listener_ = std::move(listener);
  }
  void set_byzantine_mode(ByzantineMode mode) { byzantine_ = mode; }
  ByzantineMode byzantine_mode() const { return byzantine_; }

  const ClusterConfig& config() const { return cfg_; }

  /// Final prelude (see the class comment); protocols implement
  /// OnProtocolMessage instead.
  void OnMessage(sim::NodeId from, const sim::MessagePtr& msg) final;

  /// Leadership/progress snapshot (see ReplicaStatus). The base knows
  /// only commit progress; protocol subclasses overlay leadership.
  virtual ReplicaStatus Status() const {
    ReplicaStatus status;
    status.commit_index = last_delivered_seq();
    return status;
  }

 protected:
  /// Hands a decided batch to the delivery pipeline. Sequences start at 1.
  /// Duplicate delivery of the same sequence is ignored (protocols may
  /// decide a sequence more than once during view changes — the decided
  /// value is necessarily identical if the protocol is safe, and tests
  /// assert exactly that via chain comparison). A block-ref batch whose
  /// body has not arrived stalls delivery (of it and every later
  /// sequence) until the fetch completes.
  void DeliverCommitted(uint64_t seq, Batch batch);

  /// Removes up to batch_size pool transactions and returns them. In
  /// block mode (for honest replicas): returns an EMPTY batch until a cut
  /// is due, then seals a block, broadcasts its body, and returns a
  /// block-ref. Byzantine proposers keep using inline batches so the
  /// equivocation fork paths stay byte-level meaningful.
  Batch TakeBatch();

  /// Puts a batch's transactions back into the pool (failed proposal).
  /// Block-refs resolve through the block store.
  void ReturnToPool(const Batch& batch);

  /// Models client-request authenticity: true iff every transaction in
  /// `batch` was at some point submitted to this replica as a client
  /// transaction (clients broadcast to all replicas, so honest proposals
  /// always pass). A transaction fabricated by a Byzantine leader was
  /// never submitted, so honest replicas refuse to endorse the batch —
  /// the stand-in for verifying client signatures on requests. For a
  /// block-ref batch the check runs over the stored body (callers must
  /// EnsureBodyOrFetch first; a missing body fails closed).
  bool KnownClientTxns(const Batch& batch) const;

  /// Every message the prelude does not consume: protocol traffic from a
  /// replica that is not silent.
  virtual void OnProtocolMessage(sim::NodeId from,
                                 const sim::MessagePtr& msg) = 0;

  /// True when `batch` is inline, empty, or its body is stored locally.
  /// Otherwise parks `msg` keyed by the block hash and returns false; the
  /// parked message is re-dispatched through OnMessage when the body
  /// arrives. The body was sent beside the ref, so the fetch waits one
  /// jitter bound of the link from `from` and goes out only if the body
  /// is still missing then. Each call arms its own wait: a crash cancels
  /// armed timers, and a ref re-sent after recovery must still fetch.
  bool EnsureBodyOrFetch(sim::NodeId from, const sim::MessagePtr& msg,
                         const Batch& batch);

  /// Called once per sequence as it is delivered in order, after the
  /// chain holds it: last_delivered_seq() == seq and chain() is the state
  /// at seq, however many sequences one drain delivers.
  virtual void OnDelivered(uint64_t /*seq*/) {}

  /// Signs a protocol digest with this replica's key.
  crypto::Signature Sign(const crypto::Hash256& digest) const {
    return key_.Sign(digest);
  }
  /// Verifies a peer's signature over a digest.
  bool VerifyPeer(const crypto::Hash256& digest,
                  const crypto::Signature& sig) const {
    return registry_->Verify(digest, sig);
  }
  /// True iff `sig` is `from`'s own valid signature over `digest`.
  bool VerifyFrom(sim::NodeId from, const crypto::Hash256& digest,
                  const crypto::Signature& sig) const {
    return sig.signer == from && VerifyPeer(digest, sig);
  }
  /// H(tag || a || b || digest): binds a digest to its protocol step and
  /// position (view/seq, height/round) before signing.
  static crypto::Hash256 BindDigest(const char* tag, uint64_t a, uint64_t b,
                                    const crypto::Hash256& digest);

  /// Bumps `*epoch` and runs `fn` after `delay` only if `*epoch` is still
  /// that value then: re-arming drops the earlier fire, `++*epoch`
  /// cancels. A crash in between cancels it too (see Node::SetTimer).
  template <class F>
  void ArmTimer(uint64_t* epoch, sim::Time delay, F fn) {
    SetTimer(delay, [epoch, armed = ++*epoch, fn = std::move(fn)] {
      if (*epoch == armed) fn();
    });
  }

  /// One view change: bumps `consensus.view_changes` and the protocol's
  /// own `metric`, and traces kViewChange labelled `tag` at `view`.
  void CountViewChange(const char* metric, const char* tag,
                       uint64_t view) const;

  /// `batch` plus one fabricated transaction `evil_id`: the half of an
  /// equivocating proposer's fork that honest replicas must refuse.
  static Batch Forked(const Batch& batch, txn::TxnId evil_id);

  /// Status when view `view` is led by cfg_.replicas[view % n].
  ReplicaStatus RotatingStatus(uint64_t view) const;

  ClusterConfig cfg_;

 private:
  /// Delivers every consecutive ready sequence; stalls on a missing body.
  void DrainDeliveries();
  /// Body landed: unpark waiting protocol messages, retry delivery.
  void OnBlockBody(const ledger::VerifiedBlock& body);
  /// Broadcasts a fetch for `hash` with a deterministic retry timer.
  void RequestBody(const crypto::Hash256& hash);
  /// Pops up to `max` txns off the pool's front, marking them taken.
  std::vector<txn::Transaction> TakeFromPool(size_t max);
  /// The txns `batch` carries: its own, or its stored body's (nullptr
  /// when the body has not arrived).
  const txn::TxnList* BatchTxns(const Batch& batch) const;
  /// `txns` without the ones already committed here: `txns` itself when
  /// none is, else a new list.
  txn::TxnList Unreplayed(const txn::TxnList& txns) const;

  struct PooledTxn {
    std::shared_ptr<const txn::Transaction> txn;
    sim::Time arrival_us;  ///< drives the timer cut in block mode
  };
  enum class TxnState : uint8_t {
    kTaken,      ///< neither pooled nor committed: cut into a proposal
    kPooled,     ///< waiting in pool_ at `slot`
    kCommitted,  ///< delivered; later submits and proposals are replays
  };
  /// One per txn id seen here, by submission or by delivery. Never
  /// erased: committed records are the replay check's memory.
  struct TxnRecord {
    TxnState state = TxnState::kTaken;
    /// A client submitted it here (see KnownClientTxns). A txn that
    /// commits without that, e.g. a Byzantine leader's fabrication, is
    /// not.
    bool submitted = false;
    sim::Time submit_us = 0;  ///< first submission: commit-latency origin
    std::list<PooledTxn>::iterator slot;  ///< valid while kPooled
  };

  crypto::PrivateKey key_;
  const crypto::KeyRegistry* registry_;

  std::list<PooledTxn> pool_;  ///< live pooled txns, oldest first
  std::unordered_map<txn::TxnId, TxnRecord> txns_;  ///< lookups only

  ledger::Chain chain_;
  std::map<uint64_t, Batch> out_of_order_;
  uint64_t next_deliver_ = 1;
  uint64_t committed_txns_ = 0;
  CommitListener listener_;
  ByzantineMode byzantine_ = ByzantineMode::kHonest;

  // --- Block pipeline state --------------------------------------------
  block::BlockStore blocks_;
  /// Local count of blocks this replica sealed (header height source).
  uint64_t sealed_blocks_ = 0;
  /// Protocol messages waiting for a body, keyed by block hash.
  std::map<crypto::Hash256, std::vector<std::pair<sim::NodeId, sim::MessagePtr>>>
      parked_;
  /// Last fetch broadcast per missing hash (rate-limits re-requests).
  std::map<crypto::Hash256, sim::Time> fetch_sent_us_;
};

}  // namespace pbc::consensus

#endif  // PBC_CONSENSUS_REPLICA_H_
