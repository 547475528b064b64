// Deterministic binary codecs for the durable storage layer: block
// payloads, CRC-framed log records, and the canonical serialization of a
// KvStore's latest state. All integers are little-endian fixed-width, so
// encoded bytes are identical across platforms and runs — the byte
// strings themselves are what the recovery invariants compare.
#ifndef PBC_STORE_CODEC_H_
#define PBC_STORE_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/bytes.h"
#include "ledger/block.h"
#include "store/kv_store.h"

namespace pbc::store {

/// CRC-32 (IEEE 802.3 polynomial) over `bytes`: PCLMULQDQ folding where
/// the CPU has it, table-driven slicing-by-8 otherwise (codec_internal.h).
/// Used as the per-frame integrity check in the block log and snapshot
/// files.
uint32_t Crc32(const std::string& bytes);

/// Same CRC over `len` bytes at `data`, so a frame can be checked in
/// place inside a larger buffer.
uint32_t Crc32(const char* data, size_t len);

/// Full block payload: the header in BlockHeader::EncodeTo's layout, the
/// u32 txn count, then each txn in txn::EncodeTxn's layout. A
/// VerifiedBlock's encoded_bytes() is its length.
std::string EncodeBlock(const ledger::Block& block);

/// Inverse of EncodeBlock. Returns false on malformed input or when the
/// decoded header's Merkle root does not match the transactions.
bool DecodeBlock(const std::string& payload, ledger::Block* out);

/// Canonical serialization of the latest state: (key, value, version)
/// triples in key order plus the last committed version. Two stores with
/// equal serializations are indistinguishable to any reader of latest
/// state — this string is the "byte-equals" in the recovery invariants.
std::string SerializeLatestState(const KvStore& kv);

}  // namespace pbc::store

#endif  // PBC_STORE_CODEC_H_
