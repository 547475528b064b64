#include "txn/transaction.h"

#include <algorithm>
#include <charconv>
#include <set>

namespace pbc::txn {

namespace {

void CollectAccess(const Transaction& txn, std::set<store::Key>* reads,
                   std::set<store::Key>* writes) {
  for (const auto& op : txn.ops) {
    switch (op.code) {
      case OpCode::kRead:
        reads->insert(op.key);
        break;
      case OpCode::kWrite:
        writes->insert(op.key);
        break;
      case OpCode::kIncrement:
        reads->insert(op.key);
        writes->insert(op.key);
        break;
      case OpCode::kTransferGuarded:
        reads->insert(op.key);
        reads->insert(op.key2);
        writes->insert(op.key);
        writes->insert(op.key2);
        break;
      case OpCode::kCompute:
        break;
    }
  }
}

}  // namespace

std::vector<store::Key> Transaction::DeclaredReads() const {
  std::set<store::Key> reads, writes;
  CollectAccess(*this, &reads, &writes);
  return {reads.begin(), reads.end()};
}

std::vector<store::Key> Transaction::DeclaredWrites() const {
  std::set<store::Key> reads, writes;
  CollectAccess(*this, &reads, &writes);
  return {writes.begin(), writes.end()};
}

namespace {

// EncodeTxn's output for `txn` in a reused per-thread buffer, valid until
// the next call on this thread: Digest runs several times per committed
// txn, also on the validation pool's threads, and must not allocate.
const std::string& Encoded(const Transaction& txn) {
  thread_local std::string buf;
  buf.clear();
  EncodeTxn(txn, &buf);
  return buf;
}

}  // namespace

crypto::Hash256 Transaction::Digest() const {
  return crypto::Sha256::Digest(Encoded(*this));
}

size_t EncodedSize(const Transaction& txn) { return Encoded(txn).size(); }

size_t EncodedSize(const TxnList& txns) {
  size_t bytes = 0;
  for (const Transaction& t : txns) bytes += EncodedSize(t);
  return bytes;
}

void EncodeTxn(const Transaction& txn, std::string* out) {
  PutU64(out, txn.id);
  PutU32(out, txn.client);
  PutU32(out, txn.enterprise);
  PutU32(out, txn.cross_enterprise ? 1 : 0);
  PutU32(out, static_cast<uint32_t>(txn.ops.size()));
  for (const Op& op : txn.ops) {
    PutU32(out, static_cast<uint32_t>(op.code));
    PutString(out, op.key);
    PutString(out, op.key2);
    PutString(out, op.value);
    PutU64(out, static_cast<uint64_t>(op.delta));
  }
}

bool DecodeTxn(Decoder* dec, Transaction* out) {
  Transaction t;
  uint32_t cross = 0;
  uint32_t op_count = 0;
  if (!dec->GetU64(&t.id) || !dec->GetU32(&t.client) ||
      !dec->GetU32(&t.enterprise) || !dec->GetU32(&cross) ||
      !dec->GetU32(&op_count)) {
    return false;
  }
  // Each op takes at least 24 bytes (u32 code, three u32 lengths, u64
  // delta): a count the input cannot hold is malformed, and must not size
  // the allocation below.
  if (op_count > dec->remaining() / 24) return false;
  t.cross_enterprise = cross != 0;
  t.ops.reserve(op_count);
  for (uint32_t j = 0; j < op_count; ++j) {
    Op op;
    uint32_t code = 0;
    uint64_t delta = 0;
    if (!dec->GetU32(&code) || !dec->GetString(&op.key) ||
        !dec->GetString(&op.key2) || !dec->GetString(&op.value) ||
        !dec->GetU64(&delta)) {
      return false;
    }
    if (code > static_cast<uint32_t>(OpCode::kCompute)) return false;
    op.code = static_cast<OpCode>(code);
    op.delta = static_cast<int64_t>(delta);
    t.ops.push_back(std::move(op));
  }
  *out = std::move(t);
  return true;
}

store::Value EncodeInt(int64_t v) { return std::to_string(v); }

int64_t DecodeInt(const store::Value& v) {
  int64_t out = 0;
  std::from_chars(v.data(), v.data() + v.size(), out);
  return out;
}

ExecResult Execute(const Transaction& txn, const store::KvStore& store) {
  static const store::Value kMissing;
  ExecResult result;
  // Writes so far, last writer wins per key in first-write order; they are
  // the uncommitted effects later ops of the same transaction observe.
  std::vector<store::WriteAccess> writes;
  result.reads.reserve(txn.ops.size());
  writes.reserve(txn.ops.size());
  auto find_write = [&](const store::Key& key) -> store::WriteAccess* {
    for (store::WriteAccess& w : writes) {
      if (w.key == key) return &w;
    }
    return nullptr;
  };

  // Transactions are a handful of ops, so linear scans beat node-based
  // maps here. The returned reference lives until the next write.
  auto read = [&](const store::Key& key) -> const store::Value& {
    const store::VersionedValue* external = store.Latest(key);
    // Record the external version on first touch, even after a local
    // write, so conflict detection sees the read.
    if (std::none_of(result.reads.begin(), result.reads.end(),
                     [&](const store::ReadAccess& r) { return r.key == key; })) {
      result.reads.push_back(
          {key, external != nullptr ? external->version
                                    : store::kNeverWritten});
    }
    if (const store::WriteAccess* w = find_write(key)) return w->value;
    return external != nullptr ? external->value : kMissing;
  };

  auto write = [&](const store::Key& key, store::Value value) {
    if (store::WriteAccess* w = find_write(key)) {
      w->value = std::move(value);
    } else {
      writes.push_back({key, std::move(value), false});
    }
  };

  for (const auto& op : txn.ops) {
    switch (op.code) {
      case OpCode::kRead:
        read(op.key);
        break;
      case OpCode::kWrite:
        write(op.key, op.value);
        break;
      case OpCode::kIncrement: {
        int64_t cur = DecodeInt(read(op.key));
        write(op.key, EncodeInt(cur + op.delta));
        break;
      }
      case OpCode::kTransferGuarded: {
        int64_t src = DecodeInt(read(op.key));
        int64_t dst = DecodeInt(read(op.key2));
        if (src >= op.delta) {
          write(op.key, EncodeInt(src - op.delta));
          write(op.key2, EncodeInt(dst + op.delta));
        }
        break;
      }
      case OpCode::kCompute: {
        // Burn real CPU deterministically: repeated hashing models smart
        // contract execution cost so parallel-execution speedups (E1) are
        // measurable in wall-clock terms.
        crypto::Hash256 acc;
        for (int64_t i = 0; i < op.delta; ++i) {
          crypto::Sha256 h;
          h.Update(acc);
          h.UpdateU64(static_cast<uint64_t>(i));
          acc = h.Finalize();
        }
        result.compute_rounds += op.delta;
        // Fold into writes? No — compute is pure; prevent the compiler
        // from eliding it by keeping a data dependence.
        if (acc.bytes[0] == 0xff && acc.bytes[1] == 0xff &&
            acc.bytes[2] == 0xff && acc.bytes[3] == 0xff) {
          result.compute_rounds += 1;  // astronomically unlikely
        }
        break;
      }
    }
  }
  result.writes = store::WriteBatch(std::move(writes));
  return result;
}

}  // namespace pbc::txn
