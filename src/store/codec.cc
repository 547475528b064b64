#include "store/codec.h"

#include <array>

namespace pbc::store {

namespace {

// Slicing-by-8 tables: kCrc[0] is the classic byte-at-a-time table, and
// kCrc[k][b] is the CRC contribution of byte b followed by k zero bytes,
// so eight input bytes fold into the register with eight lookups.
using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

CrcTables MakeCrcTables() {
  CrcTables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    for (size_t k = 1; k < 8; ++k) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

}  // namespace

uint32_t Crc32(const char* data, size_t len) {
  static const CrcTables kCrc = MakeCrcTables();
  const auto* p = reinterpret_cast<const unsigned char*>(data);
  uint32_t c = 0xFFFFFFFFu;
  for (; len >= 8; p += 8, len -= 8) {
    uint32_t lo = c ^ LoadLe32(p);
    uint32_t hi = LoadLe32(p + 4);
    c = kCrc[7][lo & 0xFFu] ^ kCrc[6][(lo >> 8) & 0xFFu] ^
        kCrc[5][(lo >> 16) & 0xFFu] ^ kCrc[4][lo >> 24] ^
        kCrc[3][hi & 0xFFu] ^ kCrc[2][(hi >> 8) & 0xFFu] ^
        kCrc[1][(hi >> 16) & 0xFFu] ^ kCrc[0][hi >> 24];
  }
  for (; len > 0; ++p, --len) {
    c = kCrc[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

uint32_t Crc32(const std::string& bytes) {
  return Crc32(bytes.data(), bytes.size());
}

void PutU32(std::string* out, uint32_t v) {
  char buf[4];
  for (int i = 0; i < 4; ++i) {
    buf[i] = static_cast<char>((v >> (8 * i)) & 0xFFu);
  }
  out->append(buf, sizeof(buf));
}

void PutU64(std::string* out, uint64_t v) {
  char buf[8];
  for (int i = 0; i < 8; ++i) {
    buf[i] = static_cast<char>((v >> (8 * i)) & 0xFFu);
  }
  out->append(buf, sizeof(buf));
}

void PutString(std::string* out, const std::string& s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

bool Decoder::GetU32(uint32_t* v) {
  if (remaining() < 4) return false;
  *v = 0;
  for (int i = 0; i < 4; ++i) {
    *v |= static_cast<uint32_t>(static_cast<uint8_t>((*data)[pos + i]))
          << (8 * i);
  }
  pos += 4;
  return true;
}

bool Decoder::GetU64(uint64_t* v) {
  if (remaining() < 8) return false;
  *v = 0;
  for (int i = 0; i < 8; ++i) {
    *v |= static_cast<uint64_t>(static_cast<uint8_t>((*data)[pos + i]))
          << (8 * i);
  }
  pos += 8;
  return true;
}

bool Decoder::GetString(std::string* s) {
  uint32_t len = 0;
  if (!GetU32(&len)) return false;
  if (remaining() < len) return false;
  s->assign(*data, pos, len);
  pos += len;
  return true;
}

namespace {

void PutHash(std::string* out, const crypto::Hash256& h) {
  out->append(reinterpret_cast<const char*>(h.bytes.data()), h.bytes.size());
}

bool GetHash(Decoder* dec, crypto::Hash256* h) {
  if (dec->remaining() < h->bytes.size()) return false;
  for (size_t i = 0; i < h->bytes.size(); ++i) {
    h->bytes[i] = static_cast<uint8_t>((*dec->data)[dec->pos + i]);
  }
  dec->pos += h->bytes.size();
  return true;
}

}  // namespace

std::string EncodeBlock(const ledger::Block& block) {
  std::string out;
  PutU64(&out, block.header.height);
  PutHash(&out, block.header.prev_hash);
  PutHash(&out, block.header.txn_root);
  PutU64(&out, block.header.timestamp_us);
  PutU32(&out, static_cast<uint32_t>(block.txns.size()));
  for (const txn::Transaction& t : block.txns) {
    PutU64(&out, t.id);
    PutU32(&out, t.client);
    PutU32(&out, t.enterprise);
    PutU32(&out, t.cross_enterprise ? 1 : 0);
    PutU32(&out, static_cast<uint32_t>(t.ops.size()));
    for (const txn::Op& op : t.ops) {
      PutU32(&out, static_cast<uint32_t>(op.code));
      PutString(&out, op.key);
      PutString(&out, op.key2);
      PutString(&out, op.value);
      PutU64(&out, static_cast<uint64_t>(op.delta));
    }
  }
  return out;
}

bool DecodeBlock(const std::string& payload, ledger::Block* out) {
  Decoder dec{&payload};
  ledger::Block block;
  uint32_t txn_count = 0;
  if (!dec.GetU64(&block.header.height) ||
      !GetHash(&dec, &block.header.prev_hash) ||
      !GetHash(&dec, &block.header.txn_root) ||
      !dec.GetU64(&block.header.timestamp_us) || !dec.GetU32(&txn_count)) {
    return false;
  }
  block.txns.reserve(txn_count);
  for (uint32_t i = 0; i < txn_count; ++i) {
    txn::Transaction t;
    uint32_t cross = 0;
    uint32_t op_count = 0;
    if (!dec.GetU64(&t.id) || !dec.GetU32(&t.client) ||
        !dec.GetU32(&t.enterprise) || !dec.GetU32(&cross) ||
        !dec.GetU32(&op_count)) {
      return false;
    }
    t.cross_enterprise = cross != 0;
    t.ops.reserve(op_count);
    for (uint32_t j = 0; j < op_count; ++j) {
      txn::Op op;
      uint32_t code = 0;
      uint64_t delta = 0;
      if (!dec.GetU32(&code) || !dec.GetString(&op.key) ||
          !dec.GetString(&op.key2) || !dec.GetString(&op.value) ||
          !dec.GetU64(&delta)) {
        return false;
      }
      if (code > static_cast<uint32_t>(txn::OpCode::kCompute)) return false;
      op.code = static_cast<txn::OpCode>(code);
      op.delta = static_cast<int64_t>(delta);
      t.ops.push_back(std::move(op));
    }
    block.txns.push_back(std::move(t));
  }
  if (dec.remaining() != 0) return false;
  if (!block.VerifyTxnRoot()) return false;
  *out = std::move(block);
  return true;
}

std::string SerializeLatestState(const KvStore& kv) {
  std::string out;
  uint64_t count = 0;
  kv.ForEachLatest(
      [&](const Key&, const VersionedValue&) { ++count; });
  PutU64(&out, count);
  kv.ForEachLatest([&](const Key& key, const VersionedValue& vv) {
    PutString(&out, key);
    PutString(&out, vv.value);
    PutU64(&out, vv.version);
  });
  PutU64(&out, kv.last_committed());
  return out;
}

}  // namespace pbc::store
