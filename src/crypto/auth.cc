#include "crypto/auth.h"

namespace pbc::crypto {

Signature PrivateKey::Sign(const Bytes& message) const {
  return Signature{id_, mac_key_.Mac(message)};
}

Signature PrivateKey::Sign(const Hash256& digest) const {
  return Signature{id_, mac_key_.Mac(digest)};
}

PrivateKey KeyRegistry::Register(IdentityId id) {
  return RegisterDeterministic(id, ++counter_ * 0x9e3779b97f4a7c15ULL);
}

PrivateKey KeyRegistry::RegisterDeterministic(IdentityId id, uint64_t seed) {
  Sha256 h;
  h.UpdateU64(seed);
  h.UpdateU64(id);
  h.Update(std::string("pbc-key-derivation"));
  Hash256 secret = h.Finalize();
  Bytes key(secret.bytes.begin(), secret.bytes.end());
  keys_[id] = HmacSha256Key(key);
  return PrivateKey(id, std::move(key));
}

bool KeyRegistry::Verify(const Bytes& message, const Signature& sig) const {
  auto it = keys_.find(sig.signer);
  return it != keys_.end() && it->second.Mac(message) == sig.tag;
}

bool KeyRegistry::Verify(const Hash256& digest, const Signature& sig) const {
  auto it = keys_.find(sig.signer);
  return it != keys_.end() && it->second.Mac(digest) == sig.tag;
}

}  // namespace pbc::crypto
