// Separ-style token-based verifiability [12] (§2.3.2).
//
// A trusted central authority models each global regulation (e.g. FLSA's
// "≤ 40 work hours per week") as a budget of anonymous tokens per
// participant and period. Workers attach one token per unit of regulated
// activity; platforms verify the authority's signature and the shared
// spend log (replicated via consensus across platforms) rejects reuse.
// The token itself carries no worker identity — anonymity comes from the
// authority not binding serials to identities on the ledger — so platforms
// can jointly enforce the cap without learning who worked where.
#ifndef PBC_VERIFY_TOKENS_H_
#define PBC_VERIFY_TOKENS_H_

#include <cstdint>
#include <set>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "crypto/auth.h"
#include "crypto/sha256.h"

namespace pbc::verify {

/// \brief An anonymous, single-use capability token.
struct Token {
  uint64_t constraint_id = 0;  ///< which regulation this counts against
  uint64_t period = 0;         ///< e.g. ISO week number
  crypto::Hash256 serial;      ///< unlinkable random serial
  crypto::Signature authority_sig;
};

/// \brief The trusted authority that mints tokens.
class TokenAuthority {
 public:
  TokenAuthority(crypto::IdentityId id, crypto::KeyRegistry* registry)
      : key_(registry->Register(id)) {}

  /// Mints `count` tokens for one participant under (constraint, period).
  /// The participant keeps them secret; serials are random, so tokens from
  /// different participants are indistinguishable on the ledger.
  std::vector<Token> Mint(uint64_t constraint_id, uint64_t period,
                          size_t count, Rng* rng) const;

  /// Digest the authority signs for a token.
  static crypto::Hash256 TokenDigest(const Token& token);

  crypto::IdentityId id() const { return key_.id(); }

 private:
  crypto::PrivateKey key_;
};

/// \brief The consensus-replicated spend log shared by all platforms.
///
/// `Spend` verifies the authority signature and rejects serials seen
/// before — the no-double-spend invariant that makes the token budget an
/// enforceable global constraint.
class SpendLog {
 public:
  SpendLog(const crypto::KeyRegistry* registry, crypto::IdentityId authority)
      : registry_(registry), authority_(authority) {}

  /// Consumes a token. Corruption for bad signatures, Conflict for reuse.
  Status Spend(const Token& token);

  size_t num_spent() const { return spent_.size(); }

 private:
  const crypto::KeyRegistry* registry_;
  crypto::IdentityId authority_;
  std::set<crypto::Hash256> spent_;
};

/// \brief A worker's token wallet for one (constraint, period).
class TokenWallet {
 public:
  void Deposit(std::vector<Token> tokens);

  /// Takes one unspent token, if any.
  Result<Token> Take();

  size_t remaining() const { return tokens_.size(); }

 private:
  std::vector<Token> tokens_;
};

}  // namespace pbc::verify

#endif  // PBC_VERIFY_TOKENS_H_
