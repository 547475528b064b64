#include "consensus/replica.h"

#include <algorithm>
#include <iterator>

#include "block/builder.h"
#include "obs/obs.h"

namespace pbc::consensus {

Replica::Replica(sim::NodeId id, sim::Network* net, ClusterConfig config,
                 crypto::PrivateKey key, const crypto::KeyRegistry* registry)
    : sim::Node(id, net),
      cfg_(std::move(config)),
      key_(std::move(key)),
      registry_(registry) {}

void Replica::SubmitTransaction(std::shared_ptr<const txn::Transaction> txn) {
  sim::Time now = network()->now();
  auto [it, fresh] = txns_.try_emplace(txn->id);
  TxnRecord& rec = it->second;
  rec.submitted = true;
  if (fresh) {
    rec.submit_us = now;
  } else if (rec.state != TxnState::kTaken) {
    return;  // already pooled, or a replay of a committed txn
  }
  // New, or taken by a proposal that failed: join the back of the pool.
  rec.state = TxnState::kPooled;
  rec.slot = pool_.insert(pool_.end(), PooledTxn{std::move(txn), now});
}

const txn::Transaction* Replica::FindPooled(txn::TxnId id) const {
  auto it = txns_.find(id);
  if (it == txns_.end() || it->second.state != TxnState::kPooled) {
    return nullptr;
  }
  return it->second.slot->txn.get();
}

std::vector<txn::Transaction> Replica::TakeFromPool(size_t max) {
  // The cut is the one copy of a pooled txn: the batch's or sealed body's
  // list owns it from here on.
  std::vector<txn::Transaction> out;
  out.reserve(std::min(max, pool_.size()));
  while (!pool_.empty() && out.size() < max) {
    txns_.find(pool_.front().txn->id)->second.state = TxnState::kTaken;
    out.push_back(*pool_.front().txn);
    pool_.pop_front();
  }
  return out;
}

Batch Replica::TakeBatch() {
  // Block mode (honest proposers only): seal a block when a cut is due.
  // Byzantine proposers fall through to inline batches, keeping the
  // equivocation forks (which append a fabricated txn) well-formed.
  if (cfg_.block.enabled && byzantine_ == ByzantineMode::kHonest) {
    block::CutRules rules{cfg_.block.max_txns, cfg_.block.max_delay_us};
    sim::Time oldest = pool_.empty() ? 0 : pool_.front().arrival_us;
    if (!rules.CutDue(pool_.size(), oldest, network()->now())) return {};

    ledger::VerifiedBlock body = ledger::VerifiedBlock::Seal(
        sealed_blocks_++, crypto::Hash256::Zero(),
        TakeFromPool(rules.max_txns), network()->now());

    Batch ref;
    ref.block_ref = true;
    ref.block_hash = blocks_.Put(body).value();  // a fresh seal is accepted
    ref.ref_txn_count = static_cast<uint32_t>(body.body().txns.size());

    auto msg = std::make_shared<BlockBodyMsg>();
    msg->body = std::move(body);
    for (sim::NodeId peer : cfg_.replicas) {
      if (peer != id()) Send(peer, msg);
    }
    return ref;
  }

  Batch batch;
  batch.txns = TakeFromPool(cfg_.batch_size);
  return batch;
}

const txn::TxnList* Replica::BatchTxns(const Batch& batch) const {
  if (!batch.block_ref) return &batch.txns;
  const ledger::VerifiedBlock* body = blocks_.Get(batch.block_hash);
  return body == nullptr ? nullptr : &body->body().txns;
}

void Replica::ReturnToPool(const Batch& batch) {
  // Re-submit under the table's rules: only taken txns re-join the pool.
  // A lost body returns nothing; peers re-fetch it on commit.
  const txn::TxnList* txns = BatchTxns(batch);
  if (txns == nullptr) return;
  for (const auto& t : *txns) {
    SubmitTransaction(std::make_shared<const txn::Transaction>(t));
  }
}

bool Replica::KnownClientTxns(const Batch& batch) const {
  const txn::TxnList* txns = BatchTxns(batch);
  if (txns == nullptr) return false;  // fail closed without the body
  return std::all_of(txns->begin(), txns->end(),
                     [this](const txn::Transaction& t) {
                       auto it = txns_.find(t.id);
                       return it != txns_.end() && it->second.submitted;
                     });
}

void Replica::OnMessage(sim::NodeId from, const sim::MessagePtr& msg) {
  if (byzantine_ == ByzantineMode::kSilent) return;
  if (const auto* body = sim::As<BlockBodyMsg>(*msg)) {
    if (body->body) OnBlockBody(*body->body);  // a body-less one is dropped
  } else if (const auto* fetch = sim::As<BlockFetchMsg>(*msg)) {
    const ledger::VerifiedBlock* stored = blocks_.Get(fetch->hash);
    if (stored != nullptr) {
      auto reply = std::make_shared<BlockBodyMsg>();
      reply->body = *stored;
      Send(from, reply);
    }
  } else {
    OnProtocolMessage(from, msg);
  }
}

crypto::Hash256 Replica::BindDigest(const char* tag, uint64_t a, uint64_t b,
                                    const crypto::Hash256& digest) {
  crypto::Sha256 h;
  h.Update(std::string(tag));
  h.UpdateU64(a);
  h.UpdateU64(b);
  h.Update(digest);
  return h.Finalize();
}

void Replica::CountViewChange(const char* metric, const char* tag,
                              uint64_t view) const {
  PBC_OBS_COUNT(network()->metrics(), "consensus.view_changes", 1);
  PBC_OBS_COUNT(network()->metrics(), metric, 1);
  PBC_OBS_TRACE(network()->trace(), network()->now(),
                obs::TraceKind::kViewChange, id(), id(), tag, view);
}

Batch Replica::Forked(const Batch& batch, txn::TxnId evil_id) {
  Batch forked = batch;
  std::vector<txn::Transaction> txns = batch.txns;
  txn::Transaction& evil = txns.emplace_back();
  evil.id = evil_id;
  evil.ops.push_back(txn::Op::Write("evil", "fork"));
  forked.txns = std::move(txns);
  return forked;
}

ReplicaStatus Replica::RotatingStatus(uint64_t view) const {
  ReplicaStatus status;
  status.commit_index = last_delivered_seq();
  status.view = view;
  status.leader_index = static_cast<size_t>(view % cfg_.n());
  status.is_leader = cfg_.replicas[status.leader_index] == id();
  status.knows_leader = true;
  status.knows_next_leader = true;
  status.next_leader_index = static_cast<size_t>((view + 1) % cfg_.n());
  return status;
}

void Replica::OnBlockBody(const ledger::VerifiedBlock& body) {
  std::optional<crypto::Hash256> hash = blocks_.Put(body);
  if (!hash) return;  // another body is stored under its hash
  fetch_sent_us_.erase(*hash);

  // Re-dispatch protocol messages that were waiting for this body. They
  // go back through OnMessage, so every handler guard re-runs.
  auto it = parked_.find(*hash);
  if (it != parked_.end()) {
    auto waiting = std::move(it->second);
    parked_.erase(it);
    for (auto& [sender, m] : waiting) OnMessage(sender, m);
  }
  DrainDeliveries();
}

bool Replica::EnsureBodyOrFetch(sim::NodeId from, const sim::MessagePtr& msg,
                                const Batch& batch) {
  if (!batch.block_ref || batch.empty()) return true;
  if (blocks_.Contains(batch.block_hash)) return true;
  parked_[batch.block_hash].push_back({from, msg});
  // A body sent beside the ref lands within one jitter bound of it; fetch
  // only if it has not by then (RequestBody returns when it has).
  crypto::Hash256 hash = batch.block_hash;
  SetTimer(network()->EffectiveLatency(from, id()).jitter_us + 1,
           [this, hash] { RequestBody(hash); });
  return false;
}

void Replica::RequestBody(const crypto::Hash256& hash) {
  if (blocks_.Contains(hash)) return;
  sim::Time retry = std::max<sim::Time>(1000, cfg_.timeout_us / 2);
  sim::Time now = network()->now();
  auto it = fetch_sent_us_.find(hash);
  if (it != fetch_sent_us_.end() && now - it->second < retry) return;
  fetch_sent_us_[hash] = now;

  auto fetch = std::make_shared<BlockFetchMsg>();
  fetch->hash = hash;
  for (sim::NodeId peer : cfg_.replicas) {
    if (peer != id()) Send(peer, fetch);
  }
  // Deterministic retry: keeps the fetch alive across drops/partitions.
  // Any replica that voted for the hash necessarily holds the body, so
  // one surviving quorum member suffices to answer eventually.
  SetTimer(retry, [this, hash] { RequestBody(hash); });
}

void Replica::DeliverCommitted(uint64_t seq, Batch batch) {
  if (seq < next_deliver_ || out_of_order_.count(seq) > 0) return;
  out_of_order_[seq] = std::move(batch);
  DrainDeliveries();
}

txn::TxnList Replica::Unreplayed(const txn::TxnList& txns) const {
  auto committed = [this](const txn::Transaction& t) {
    auto it = txns_.find(t.id);
    return it != txns_.end() && it->second.state == TxnState::kCommitted;
  };
  if (std::none_of(txns.begin(), txns.end(), committed)) return txns;
  std::vector<txn::Transaction> kept;
  std::remove_copy_if(txns.begin(), txns.end(), std::back_inserter(kept),
                      committed);
  return kept;
}

void Replica::DrainDeliveries() {
  obs::MetricsRegistry* metrics = network()->metrics();
  while (true) {
    auto it = out_of_order_.find(next_deliver_);
    if (it == out_of_order_.end()) break;
    Batch& b = it->second;
    // The stored body, when the replay filter below keeps all of it: the
    // chain block then shares its list and takes its verified root
    // instead of rebuilding it.
    const ledger::VerifiedBlock* whole = nullptr;
    // Drop transactions that already committed at an earlier sequence:
    // with rotating proposers several leaders may batch the same client
    // transaction (clients submit to all replicas). Every replica filters
    // deterministically against the same committed records, so chains
    // stay identical. This mirrors Fabric's txid-based replay check.
    if (b.block_ref && !b.empty()) {
      const ledger::VerifiedBlock* body = blocks_.Get(b.block_hash);
      if (body == nullptr) {
        // Ordered but not yet received: stall this and all later
        // sequences (delivery is in-order) until the fetch completes.
        RequestBody(b.block_hash);
        break;
      }
      // The body alone is what the ref's digest names; any txns a
      // Byzantine proposer attached to the ref are discarded.
      b.txns = Unreplayed(body->body().txns);
      b.block_ref = false;
      if (b.txns.size() == body->body().txns.size()) whole = body;
    } else {
      b.txns = Unreplayed(b.txns);
    }
    PBC_OBS_COUNT(metrics, "consensus.committed_txns", b.txns.size());
    for (const auto& t : b.txns) {
      // A txn delivered without being submitted here gets its record now.
      TxnRecord& rec = txns_[t.id];
      if (rec.state == TxnState::kPooled) pool_.erase(rec.slot);
      if (rec.submitted && rec.state != TxnState::kCommitted) {
        PBC_OBS_HIST_RECORD(metrics, "consensus.commit_latency_us",
                            network()->now() - rec.submit_us);
      }
      rec.state = TxnState::kCommitted;
    }
    committed_txns_ += b.txns.size();
    if (!b.txns.empty()) {
      PBC_OBS_TRACE(network()->trace(), network()->now(),
                    obs::TraceKind::kCommit, id(), id(), "batch",
                    next_deliver_);
      if (whole != nullptr) {
        chain_.Append(*whole);
      } else {
        chain_.Append(b.txns);
      }
    }
    if (listener_) listener_(id(), next_deliver_, b);
    out_of_order_.erase(it);
    OnDelivered(next_deliver_++);
  }
}

}  // namespace pbc::consensus
