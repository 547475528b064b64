// From-scratch SHA-256 (FIPS 180-4). The framework's content addressing,
// block chaining, Merkle trees, HMAC authenticators, and Fiat–Shamir
// challenges are all built on this single primitive.
#ifndef PBC_CRYPTO_SHA256_H_
#define PBC_CRYPTO_SHA256_H_

#include <array>
#include <cstdint>
#include <string>

#include "common/bytes.h"

namespace pbc::crypto {

/// \brief A 32-byte SHA-256 digest, usable as a map key.
struct Hash256 {
  std::array<uint8_t, 32> bytes{};

  bool operator==(const Hash256& o) const { return bytes == o.bytes; }
  bool operator!=(const Hash256& o) const { return bytes != o.bytes; }
  bool operator<(const Hash256& o) const { return bytes < o.bytes; }

  bool IsZero() const;
  std::string ToHex() const;
  /// First 8 hex chars; convenient for logs.
  std::string ToShortHex() const;
  /// First 8 bytes interpreted little-endian (for cheap bucketing).
  uint64_t ToU64() const;

  static Hash256 Zero() { return Hash256{}; }
};

/// \brief Incremental SHA-256 hasher.
class Sha256 {
 public:
  Sha256();

  void Update(const uint8_t* data, size_t len);
  void Update(const Bytes& data) { Update(data.data(), data.size()); }
  void Update(const std::string& data) {
    Update(reinterpret_cast<const uint8_t*>(data.data()), data.size());
  }
  void Update(const Hash256& h) { Update(h.bytes.data(), h.bytes.size()); }
  void UpdateU64(uint64_t v);

  /// Finalizes and returns the digest. The hasher must not be reused after.
  Hash256 Finalize();

  /// One-shot helpers.
  static Hash256 Digest(const Bytes& data);
  static Hash256 Digest(const std::string& data);

 private:
  std::array<uint32_t, 8> state_;
  uint64_t total_len_ = 0;
  std::array<uint8_t, 64> buffer_{};
  size_t buffer_len_ = 0;
};

/// \brief An HMAC-SHA256 (RFC 2104) key with its ipad and opad blocks
/// already absorbed: each MAC copies two hasher states and needs no heap
/// allocation; a MAC over a 32-byte digest costs two compressions.
class HmacSha256Key {
 public:
  HmacSha256Key() : HmacSha256Key(Bytes{}) {}
  explicit HmacSha256Key(const Bytes& key);

  Hash256 Mac(const uint8_t* message, size_t len) const;
  Hash256 Mac(const Bytes& message) const {
    return Mac(message.data(), message.size());
  }
  Hash256 Mac(const Hash256& digest) const {
    return Mac(digest.bytes.data(), digest.bytes.size());
  }

 private:
  Sha256 inner_;  // after absorbing key ^ ipad
  Sha256 outer_;  // after absorbing key ^ opad
};

/// \brief HMAC-SHA256 (RFC 2104) under a one-off key.
Hash256 HmacSha256(const Bytes& key, const Bytes& message);

struct Hash256Hasher {
  size_t operator()(const Hash256& h) const {
    // Digest bytes are already uniform; fold the first 8.
    size_t v = 0;
    for (int i = 0; i < 8; ++i) v = (v << 8) | h.bytes[i];
    return v;
  }
};

}  // namespace pbc::crypto

#endif  // PBC_CRYPTO_SHA256_H_
