// Node authentication for the permissioned network.
//
// Substitution note (see DESIGN.md §2): production systems use X.509 / ECDSA
// under a membership service. In a permissioned deployment the signature's
// protocol-level role is sender authentication among *known* identities, so
// we provide the same abstraction — unforgeable-without-key tags verified
// against a registry — built on HMAC-SHA256. Each identity holds a secret
// MAC key; verifiers consult the `KeyRegistry` (standing in for the
// membership service / CA). Byzantine nodes in tests are modeled as holding
// only their own key, so they cannot forge others' messages, exactly the
// guarantee BFT protocols assume.
#ifndef PBC_CRYPTO_AUTH_H_
#define PBC_CRYPTO_AUTH_H_

#include <cstdint>
#include <map>
#include <string>

#include "common/bytes.h"
#include "common/result.h"
#include "crypto/sha256.h"

namespace pbc::crypto {

/// \brief Identity of a participant (node, client, enterprise, authority).
using IdentityId = uint32_t;

/// \brief An authentication tag over a message, bound to a signer identity.
struct Signature {
  IdentityId signer = 0;
  Hash256 tag;

  bool operator==(const Signature& o) const {
    return signer == o.signer && tag == o.tag;
  }
};

/// \brief Secret key material held by one identity.
class PrivateKey {
 public:
  PrivateKey() = default;
  explicit PrivateKey(IdentityId id, Bytes secret)
      : id_(id), secret_(std::move(secret)), mac_key_(secret_) {}

  /// Produces an authentication tag over `message`.
  Signature Sign(const Bytes& message) const;
  Signature Sign(const Hash256& digest) const;

  IdentityId id() const { return id_; }
  const Bytes& secret() const { return secret_; }

 private:
  IdentityId id_ = 0;
  Bytes secret_;
  HmacSha256Key mac_key_;  // secret_ with its HMAC pads absorbed
};

/// \brief The membership service: maps identities to verification keys.
///
/// In tests and simulations a single registry is shared by all honest nodes;
/// Byzantine nodes receive only their own `PrivateKey`, so any attempt to
/// impersonate another identity fails verification.
class KeyRegistry {
 public:
  /// Creates and registers a fresh identity; returns its private key.
  PrivateKey Register(IdentityId id);

  /// Deterministically derives an identity's key from a seed (used to set
  /// up large simulated networks reproducibly).
  PrivateKey RegisterDeterministic(IdentityId id, uint64_t seed);

  /// Verifies that `sig` is a valid tag by `sig.signer` over `message`.
  bool Verify(const Bytes& message, const Signature& sig) const;
  bool Verify(const Hash256& digest, const Signature& sig) const;

  bool Contains(IdentityId id) const { return keys_.count(id) > 0; }
  size_t size() const { return keys_.size(); }

 private:
  // Ordered: the registry is membership state shared by every honest
  // node; keeping it address-independent means any future enumeration
  // (snapshots, audits, serialization) is deterministic by construction.
  std::map<IdentityId, HmacSha256Key> keys_;
  uint64_t counter_ = 0;
};

}  // namespace pbc::crypto

#endif  // PBC_CRYPTO_AUTH_H_
