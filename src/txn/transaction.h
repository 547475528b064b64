// The transaction model shared by all architectures.
//
// Transactions are deterministic procedures over the KV store, expressed as
// a short op program. Determinism is what lets OX replicas execute
// sequentially and agree, and the declared access sets are what
// ParBlockchain's orderers use to build dependency graphs without executing.
#ifndef PBC_TXN_TRANSACTION_H_
#define PBC_TXN_TRANSACTION_H_

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "crypto/sha256.h"
#include "store/kv_store.h"

namespace pbc::txn {

using TxnId = uint64_t;
using EnterpriseId = uint32_t;

/// \brief Operation kinds.
enum class OpCode {
  kRead,             ///< read `key`
  kWrite,            ///< blind write `value` to `key`
  kIncrement,        ///< read integer at `key` (default 0), add `delta`
  kTransferGuarded,  ///< move `delta` from `key` to `key2` if funds suffice
  kCompute,          ///< burn `delta` rounds of hashing (models contract cost)
};

/// \brief One operation of a transaction program.
struct Op {
  OpCode code;
  store::Key key;
  store::Key key2;  // kTransferGuarded destination
  store::Value value;
  int64_t delta = 0;

  static Op Read(store::Key k) { return {OpCode::kRead, std::move(k), "", "", 0}; }
  static Op Write(store::Key k, store::Value v) {
    return {OpCode::kWrite, std::move(k), "", std::move(v), 0};
  }
  static Op Increment(store::Key k, int64_t d) {
    return {OpCode::kIncrement, std::move(k), "", "", d};
  }
  static Op Transfer(store::Key from, store::Key to, int64_t amount) {
    return {OpCode::kTransferGuarded, std::move(from), std::move(to), "",
            amount};
  }
  static Op Compute(int64_t rounds) {
    return {OpCode::kCompute, "", "", "", rounds};
  }

  bool operator==(const Op&) const = default;
};

/// \brief A client transaction.
struct Transaction {
  TxnId id = 0;
  uint32_t client = 0;
  /// Owning enterprise (Caper / ParBlockchain multi-enterprise routing).
  EnterpriseId enterprise = 0;
  /// True when the transaction spans enterprises (Caper cross-enterprise).
  bool cross_enterprise = false;
  std::vector<Op> ops;

  /// Keys this transaction may read / write, derived statically from ops.
  std::vector<store::Key> DeclaredReads() const;
  std::vector<store::Key> DeclaredWrites() const;

  /// Content digest used for ledger inclusion and signatures: SHA-256 of
  /// EncodeTxn's bytes, so distinct txns have distinct digests.
  crypto::Hash256 Digest() const;

  bool operator==(const Transaction&) const = default;
};

/// \brief An immutable, shared, ordered list of txns: a block body's or a
/// batch's.
///
/// Copies share one vector, so the body a proposer seals is the list its
/// batch, every block store and every replica's chain read; no txn is
/// copied between them. The list is never changed in place: build a new
/// vector and assign it. Read it like a `const std::vector<Transaction>`,
/// which it converts to.
class TxnList {
 public:
  using const_iterator = std::vector<Transaction>::const_iterator;
  using iterator = const_iterator;

  TxnList() = default;
  TxnList(std::vector<Transaction> txns)  // NOLINT
      : txns_(std::make_shared<const std::vector<Transaction>>(
            std::move(txns))) {}
  TxnList(std::initializer_list<Transaction> txns)
      : TxnList(std::vector<Transaction>(txns)) {}

  /// The shared vector (one static empty vector for an empty list).
  const std::vector<Transaction>& vec() const {
    static const std::vector<Transaction> kEmpty;
    return txns_ ? *txns_ : kEmpty;
  }
  operator const std::vector<Transaction>&() const {  // NOLINT
    return vec();
  }

  size_t size() const { return vec().size(); }
  bool empty() const { return vec().empty(); }
  const_iterator begin() const { return vec().begin(); }
  const_iterator end() const { return vec().end(); }
  const Transaction& operator[](size_t i) const { return vec()[i]; }

  friend bool operator==(const TxnList& a, const TxnList& b) {
    return a.txns_ == b.txns_ || a.vec() == b.vec();
  }

 private:
  std::shared_ptr<const std::vector<Transaction>> txns_;
};

/// \brief Appends the canonical encoding of `txn` to `out`: u64 id; u32
/// client, enterprise, cross_enterprise and op count; then per op u32
/// code, length-prefixed key, key2 and value, and u64 delta. It covers
/// every field operator== compares, and the length prefixes make it
/// injective. The block log stores txns in this layout.
void EncodeTxn(const Transaction& txn, std::string* out);

/// \brief Inverse of EncodeTxn: reads one txn at `dec`'s cursor. Returns
/// false on underrun or an unknown op code.
bool DecodeTxn(Decoder* dec, Transaction* out);

/// \brief Bytes of EncodeTxn's output for `txn`: its size on the wire and
/// in the block log. Encodes into Digest's per-thread buffer, so it
/// allocates nothing and states no layout of its own.
size_t EncodedSize(const Transaction& txn);

/// \brief Sum of EncodedSize over `txns`: the payload of a batch or body.
size_t EncodedSize(const TxnList& txns);

/// \brief Outcome of executing a transaction's program.
struct ExecResult {
  bool ok = true;  ///< false only on internal errors, not business no-ops
  std::vector<store::ReadAccess> reads;   ///< keys + versions observed
  store::WriteBatch writes;               ///< effects to apply
  int64_t compute_rounds = 0;             ///< total kCompute work performed
};

/// \brief Executes `txn` deterministically against `store`'s latest state,
/// which must not change while it runs (concurrent calls may share it).
///
/// Never mutates state itself; the caller decides when/whether to apply
/// `writes` (immediately in OX, after validation in XOV).
ExecResult Execute(const Transaction& txn, const store::KvStore& store);

/// \brief Applies a committed `txn` to `kv`: executes it against the latest
/// state and applies its writes at version `(*next_version)++`, so the
/// version advances only when the txn wrote. The one rule for sequential
/// replay — the durable ledger, its recovery and the KV model checker all
/// use it, which keeps their states byte-comparable. Returns the writes.
inline store::WriteBatch ApplyCommitted(const Transaction& txn,
                                        store::KvStore* kv,
                                        store::Version* next_version) {
  ExecResult result = Execute(txn, *kv);
  if (!result.writes.empty()) kv->ApplyBatch(result.writes, (*next_version)++);
  return std::move(result.writes);
}

/// \brief Encodes an integer value for the store.
store::Value EncodeInt(int64_t v);
/// \brief Decodes an integer value; 0 for missing/invalid.
int64_t DecodeInt(const store::Value& v);

}  // namespace pbc::txn

#endif  // PBC_TXN_TRANSACTION_H_
