// Blocks: batches of transactions with a hash-chained header.
#ifndef PBC_LEDGER_BLOCK_H_
#define PBC_LEDGER_BLOCK_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "crypto/merkle.h"
#include "crypto/sha256.h"
#include "txn/transaction.h"

namespace pbc::ledger {

/// \brief Header committing to a block's position and contents.
struct BlockHeader {
  uint64_t height = 0;
  crypto::Hash256 prev_hash;  ///< hash of the previous block's header
  crypto::Hash256 txn_root;   ///< Merkle root over transaction digests
  uint64_t timestamp_us = 0;  ///< simulated time of proposal

  /// The block's identity: SHA-256 over the header fields.
  crypto::Hash256 Hash() const;

  /// Bytes EncodeTo writes: the fixed-width layout u64 height, prev_hash,
  /// txn_root, u64 timestamp_us. The block log stores a header this way,
  /// and a body's wire size counts it.
  static constexpr size_t kEncodedBytes =
      2 * sizeof(uint64_t) + 2 * sizeof(crypto::Hash256);

  /// Appends the header's fixed-width layout to `out`.
  void EncodeTo(std::string* out) const;
  /// Reads EncodeTo's layout at `dec`'s cursor; false on underrun.
  bool DecodeFrom(Decoder* dec);
};

/// \brief A block of transactions.
struct Block {
  BlockHeader header;
  txn::TxnList txns;

  /// Builds a block at `height` chaining to `prev_hash`, computing the
  /// transaction Merkle root.
  static Block Make(uint64_t height, const crypto::Hash256& prev_hash,
                    txn::TxnList txns,
                    uint64_t timestamp_us = 0);

  /// Recomputes the Merkle root and checks it against the header.
  bool VerifyTxnRoot() const;

  /// Digests of all transactions, in order.
  std::vector<crypto::Hash256> TxnDigests() const;
};

/// \brief A shared, immutable block body whose header's txn root is known
/// to commit to its txns.
///
/// `Seal` and `Verify` are the only ways to get one, so holding one is the
/// proof: code that takes a VerifiedBlock reuses `header.txn_root` instead
/// of rebuilding the Merkle tree. Copies share the one body.
class VerifiedBlock {
 public:
  /// A fresh body `Block::Make(height, prev_hash, txns, timestamp_us)`.
  /// Make computes the root from these very txns, so no second Merkle
  /// build is needed to trust it.
  static VerifiedBlock Seal(uint64_t height, const crypto::Hash256& prev_hash,
                            txn::TxnList txns,
                            uint64_t timestamp_us);
  /// `body` as a VerifiedBlock if `body->VerifyTxnRoot()` holds; nullopt
  /// otherwise, and for a null `body`.
  static std::optional<VerifiedBlock> Verify(std::shared_ptr<const Block> body);

  const Block& body() const { return *body_; }
  /// Length of the body's encoding, which store::EncodeBlock writes: the
  /// header, a u32 txn count, then each txn in txn::EncodeTxn's layout.
  /// Taken once, by Seal or Verify; it is what the body costs on the wire.
  size_t encoded_bytes() const { return encoded_bytes_; }

 private:
  explicit VerifiedBlock(std::shared_ptr<const Block> body);

  std::shared_ptr<const Block> body_;
  size_t encoded_bytes_;
};

}  // namespace pbc::ledger

#endif  // PBC_LEDGER_BLOCK_H_
