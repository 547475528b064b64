// Private data collections [6] within a Fabric channel (§2.3.1).
//
// A collection names the subset of channel members allowed to hold some
// private data. The data itself lives in a private database replicated
// only on member peers; what goes on the channel ledger — visible to every
// channel member — is a salted hash of each private value. Non-members can
// therefore validate state transitions (and detect equivocation) without
// learning the data; members can prove a value matches the on-ledger hash.
#ifndef PBC_CONFIDENTIAL_PRIVATE_DATA_H_
#define PBC_CONFIDENTIAL_PRIVATE_DATA_H_

#include <map>
#include <set>
#include <string>

#include "common/result.h"
#include "crypto/sha256.h"
#include "ledger/chain.h"
#include "store/kv_store.h"
#include "txn/transaction.h"

namespace pbc::confidential {

using CollectionId = std::string;

/// \brief A channel with private data collections layered on top.
class PdcChannel {
 public:
  explicit PdcChannel(std::set<txn::EnterpriseId> members)
      : members_(std::move(members)) {}

  /// Defines a collection; members must be a subset of channel members.
  Status DefineCollection(const CollectionId& id,
                          std::set<txn::EnterpriseId> members);

  /// Writes private data on behalf of `writer`: members' private stores
  /// get the plaintext, the public channel ledger gets H(key‖value‖salt).
  /// `salt` prevents dictionary attacks on low-entropy values.
  Status PutPrivate(const CollectionId& collection, txn::EnterpriseId writer,
                    const store::Key& key, const store::Value& value,
                    uint64_t salt);

  /// Reads private data; PermissionDenied for non-members. This models a
  /// non-member peer simply not having the private DB at all.
  Result<store::VersionedValue> GetPrivate(const CollectionId& collection,
                                           txn::EnterpriseId reader,
                                           const store::Key& key) const;

  /// The on-ledger hash for (collection, key): readable by every channel
  /// member — this is what non-members use for validation.
  Result<crypto::Hash256> GetOnLedgerHash(txn::EnterpriseId reader,
                                          const CollectionId& collection,
                                          const store::Key& key) const;

  /// Verifies that a claimed (value, salt) opening matches the on-ledger
  /// hash — how a member proves data to an auditor without the ledger
  /// carrying plaintext.
  Result<bool> VerifyOpening(txn::EnterpriseId reader,
                             const CollectionId& collection,
                             const store::Key& key, const store::Value& value,
                             uint64_t salt) const;

  /// Regular public channel state write (visible to all members).
  Status PutPublic(txn::EnterpriseId writer, const store::Key& key,
                   const store::Value& value);
  Result<store::VersionedValue> GetPublic(txn::EnterpriseId reader,
                                          const store::Key& key) const;

  static crypto::Hash256 HashPrivate(const store::Key& key,
                                     const store::Value& value,
                                     uint64_t salt);

  bool IsCollectionMember(const CollectionId& c, txn::EnterpriseId e) const;

  /// Number of peers storing plaintext for a collection (replication /
  /// confidentiality trade-off metric).
  Result<size_t> CollectionReplication(const CollectionId& c) const;

 private:
  struct Collection {
    std::set<txn::EnterpriseId> members;
    // One private store per member enterprise (each member's peers hold a
    // replica; modeled as one store per member).
    std::map<txn::EnterpriseId, store::KvStore> stores;
  };

  std::set<txn::EnterpriseId> members_;
  std::map<CollectionId, Collection> collections_;
  store::KvStore public_store_;  ///< shared channel state incl. hashes
};

}  // namespace pbc::confidential

#endif  // PBC_CONFIDENTIAL_PRIVATE_DATA_H_
