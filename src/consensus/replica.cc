#include "consensus/replica.h"

#include <algorithm>
#include <optional>

#include "block/builder.h"
#include "obs/obs.h"

namespace pbc::consensus {

Replica::Replica(sim::NodeId id, sim::Network* net, ClusterConfig config,
                 crypto::PrivateKey key, const crypto::KeyRegistry* registry)
    : sim::Node(id, net),
      cfg_(std::move(config)),
      key_(std::move(key)),
      registry_(registry) {}

void Replica::SubmitTransaction(txn::Transaction txn) {
  seen_ids_.insert(txn.id);
  if (pool_ids_.count(txn.id) > 0 || committed_ids_.count(txn.id) > 0) return;
#if PBC_OBS_ENABLED
  // Commit-latency bookkeeping, only for metric-attached runs (the map
  // stays empty otherwise and never influences protocol behavior).
  if (network()->metrics() != nullptr) {
    submit_time_us_.emplace(txn.id, network()->now());
  }
#endif
  if (cfg_.block.enabled) arrival_us_.emplace(txn.id, network()->now());
  pool_ids_.insert(txn.id);
  pool_.push_back(std::move(txn));
}

void Replica::ErasePoolTxn(txn::TxnId id) {
  if (pool_ids_.erase(id) == 0) return;
  arrival_us_.erase(id);
  for (auto pit = pool_.begin(); pit != pool_.end(); ++pit) {
    if (pit->id == id) {
      pool_.erase(pit);
      break;
    }
  }
}

Batch Replica::TakeBatch() {
  // Block mode (honest proposers only): seal a block when a cut is due.
  // Byzantine proposers fall through to inline batches, keeping the
  // equivocation forks (which append a fabricated txn) well-formed.
  if (cfg_.block.enabled && byzantine_ == ByzantineMode::kHonest) {
    block::CutRules rules{cfg_.block.max_txns, cfg_.block.max_delay_us};
    sim::Time oldest = 0;
    if (!pool_.empty()) {
      auto it = arrival_us_.find(pool_.front().id);
      oldest = it == arrival_us_.end() ? 0 : it->second;
    }
    if (!rules.CutDue(pool_.size(), oldest, network()->now())) return {};

    std::vector<txn::Transaction> txns;
    size_t take = std::min(pool_.size(), rules.max_txns);
    txns.reserve(take);
    for (size_t i = 0; i < take; ++i) {
      arrival_us_.erase(pool_.front().id);
      pool_ids_.erase(pool_.front().id);
      txns.push_back(std::move(pool_.front()));
      pool_.pop_front();
    }
    ledger::Block body = block::BlockBuilder::Seal(
        sealed_blocks_++, crypto::Hash256::Zero(), std::move(txns),
        network()->now());

    Batch ref;
    ref.block_ref = true;
    ref.block_hash = body.header.Hash();
    ref.ref_txn_count = static_cast<uint32_t>(body.txns.size());

    blocks_.Put(body);
    auto msg = std::make_shared<BlockBodyMsg>();
    msg->body = std::move(body);
    for (sim::NodeId peer : cfg_.replicas) {
      if (peer != id()) Send(peer, msg);
    }
    return ref;
  }

  Batch batch;
  while (!pool_.empty() && batch.txns.size() < cfg_.batch_size) {
    arrival_us_.erase(pool_.front().id);
    batch.txns.push_back(std::move(pool_.front()));
    pool_.pop_front();
    pool_ids_.erase(batch.txns.back().id);
  }
  return batch;
}

void Replica::ReturnToPool(const Batch& batch) {
  // Re-submit preserving dedup rules.
  if (batch.block_ref) {
    const ledger::Block* body = blocks_.Get(batch.block_hash);
    if (body == nullptr) return;  // body lost; peers re-fetch on commit
    for (const auto& t : body->txns) SubmitTransaction(t);
    return;
  }
  for (const auto& t : batch.txns) SubmitTransaction(t);
}

bool Replica::KnownClientTxns(const Batch& batch) const {
  if (batch.block_ref) {
    const ledger::Block* body = blocks_.Get(batch.block_hash);
    if (body == nullptr) return false;  // fail closed without the body
    for (const auto& t : body->txns) {
      if (seen_ids_.count(t.id) == 0) return false;
    }
    return true;
  }
  for (const auto& t : batch.txns) {
    if (seen_ids_.count(t.id) == 0) return false;
  }
  return true;
}

void Replica::OnMessage(sim::NodeId from, const sim::MessagePtr& msg) {
  if (byzantine_ == ByzantineMode::kSilent) return;
  if (const auto* body = sim::As<BlockBodyMsg>(*msg)) {
    OnBlockBody(body->body);
  } else if (const auto* fetch = sim::As<BlockFetchMsg>(*msg)) {
    const ledger::Block* stored = blocks_.Get(fetch->hash);
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

void Replica::CountViewChange([[maybe_unused]] const char* metric,
                              [[maybe_unused]] const char* tag,
                              [[maybe_unused]] uint64_t view) const {
  PBC_OBS_COUNT(network()->metrics(), "consensus.view_changes", 1);
  PBC_OBS_COUNT(network()->metrics(), metric, 1);
  PBC_OBS_TRACE(network()->trace(), network()->now(),
                obs::TraceKind::kViewChange, id(), id(), tag, view);
}

Batch Replica::Forked(const Batch& batch, txn::TxnId evil_id) {
  Batch forked = batch;
  txn::Transaction evil;
  evil.id = evil_id;
  evil.ops.push_back(txn::Op::Write("evil", "fork"));
  forked.txns.push_back(std::move(evil));
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

void Replica::OnBlockBody(const ledger::Block& body) {
  crypto::Hash256 hash = body.header.Hash();
  if (!blocks_.Put(body)) return;  // root mismatch: fabricated body
  fetch_sent_us_.erase(hash);

  // Re-dispatch protocol messages that were waiting for this body. They
  // go back through OnMessage, so every handler guard re-runs.
  auto it = parked_.find(hash);
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
  RequestBody(batch.block_hash);
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

void Replica::DrainDeliveries() {
  while (true) {
    auto it = out_of_order_.find(next_deliver_);
    if (it == out_of_order_.end()) break;
    Batch& b = it->second;
    // Root of the stored (hence verified) body this batch resolves to.
    std::optional<crypto::Hash256> body_root;
    if (b.block_ref && !b.empty()) {
      const ledger::Block* body = blocks_.Get(b.block_hash);
      if (body == nullptr) {
        // Ordered but not yet received: stall this and all later
        // sequences (delivery is in-order) until the fetch completes.
        RequestBody(b.block_hash);
        break;
      }
      b.txns = body->txns;
      b.block_ref = false;
      body_root = body->header.txn_root;
    }
    // Drop transactions that already committed at an earlier sequence:
    // with rotating proposers several leaders may batch the same client
    // transaction (clients submit to all replicas). Every replica filters
    // deterministically against the same committed-id set, so chains stay
    // identical. This mirrors Fabric's txid-based replay check.
    std::vector<txn::Transaction> fresh;
    fresh.reserve(b.txns.size());
    for (auto& t : b.txns) {
      if (committed_ids_.count(t.id) == 0) fresh.push_back(std::move(t));
    }
    if (fresh.size() != b.txns.size()) body_root.reset();
    b.txns = std::move(fresh);
    for (const auto& t : b.txns) {
      committed_ids_.insert(t.id);
      // A committed txn may still sit in the pool if it was submitted to
      // several replicas; purge lazily.
      ErasePoolTxn(t.id);
    }
    committed_txns_ += b.txns.size();
#if PBC_OBS_ENABLED
    if (network()->metrics() != nullptr) {
      PBC_OBS_COUNT(network()->metrics(), "consensus.committed_txns",
                    b.txns.size());
      for (const auto& t : b.txns) {
        auto sit = submit_time_us_.find(t.id);
        if (sit != submit_time_us_.end()) {
          PBC_OBS_HIST_RECORD(network()->metrics(),
                              "consensus.commit_latency_us",
                              network()->now() - sit->second);
          submit_time_us_.erase(sit);
        }
      }
    }
    if (!b.txns.empty()) {
      PBC_OBS_TRACE(network()->trace(), network()->now(),
                    obs::TraceKind::kCommit, id(), id(), "batch",
                    next_deliver_);
    }
#endif
    if (!b.txns.empty()) {
      // An unfiltered body keeps its txn list, so its root carries over
      // instead of being rebuilt; Append re-checks the root either way.
      ledger::Block block =
          body_root ? ledger::Block{{chain_.height(), chain_.TipHash(),
                                     *body_root, /*timestamp_us=*/0},
                                    b.txns}
                    : ledger::Block::Make(chain_.height(), chain_.TipHash(),
                                          b.txns, /*timestamp_us=*/0);
      pbc::Status s = chain_.Append(std::move(block));
      (void)s;  // Append of a self-built block cannot fail.
    }
    if (listener_) listener_(id(), next_deliver_, b);
    out_of_order_.erase(it);
    OnDelivered(next_deliver_++);
  }
}

}  // namespace pbc::consensus
