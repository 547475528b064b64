// Byte-vector utilities shared across crypto, ledger, and protocols, and
// the little-endian primitives every deterministic encoding is built from
// (the txn layout in txn/, the durable codecs in store/).
#ifndef PBC_COMMON_BYTES_H_
#define PBC_COMMON_BYTES_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace pbc {

using Bytes = std::vector<uint8_t>;

/// \brief Converts a UTF-8 string to bytes.
Bytes ToBytes(const std::string& s);

/// \brief Converts bytes to a std::string (may contain NULs).
std::string ToString(const Bytes& b);

/// \brief Lowercase hex encoding.
std::string HexEncode(const Bytes& b);
std::string HexEncode(const uint8_t* data, size_t len);

// Little-endian primitive append / cursor-based extract. Defined inline:
// Transaction::Digest encodes every txn it hashes with these.
template <typename T>
inline void PutLe(std::string* out, T v) {
  char buf[sizeof(T)];
  for (size_t i = 0; i < sizeof(T); ++i) {
    buf[i] = static_cast<char>((v >> (8 * i)) & 0xFFu);
  }
  out->append(buf, sizeof(buf));
}
inline void PutU32(std::string* out, uint32_t v) { PutLe(out, v); }
inline void PutU64(std::string* out, uint64_t v) { PutLe(out, v); }
inline void PutString(std::string* out, const std::string& s) {  // u32 len
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

/// Cursor over an encoded buffer; all Get* return false on underrun and
/// leave the cursor unspecified (decoding must then be abandoned).
struct Decoder {
  const std::string* data;
  size_t pos = 0;

  template <typename T>
  bool GetLe(T* v) {
    if (remaining() < sizeof(T)) return false;
    *v = 0;
    for (size_t i = 0; i < sizeof(T); ++i) {
      *v |= static_cast<T>(static_cast<uint8_t>((*data)[pos + i])) << (8 * i);
    }
    pos += sizeof(T);
    return true;
  }
  bool GetU32(uint32_t* v) { return GetLe(v); }
  bool GetU64(uint64_t* v) { return GetLe(v); }
  bool GetString(std::string* s);
  size_t remaining() const { return data->size() - pos; }
};

}  // namespace pbc

#endif  // PBC_COMMON_BYTES_H_
