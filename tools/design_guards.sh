#!/usr/bin/env bash
# Design guards: grep checks that keep the design rules DESIGN.md states
# from eroding. Each guard prints what it found and why it matters, and
# exits 1; the script exits 0 when every guard holds. Tier-1 runs it
# (ctest -R design_guards), and so does CI's detlint job.
#
#   tools/design_guards.sh
set -eu
cd "$(dirname "$0")/.."

# --- Tag dispatch only (src/consensus, src/shard, src/check)
# Consensus and shard messages dispatch on their type tag
# (sim::As<T>), never on string compares or RTTI; src/check reads a
# run's protocol, nemesis and adversary as parsed values, never as
# strings.
if grep -rnE '== std::string\(|dynamic_cast<' src/consensus src/shard; then
  echo "dispatch messages with sim::As<T>, not string compares or dynamic_cast"
  exit 1
fi
if grep -rnE '\b(protocol|nemesis|adversary) *[!=]= *"' src/check; then
  echo "RunConfig's protocol, nemesis and adversary are parsed once, in the run-flag table: compare enum values, not strings"
  exit 1
fi

# --- One Merkle build per block body (src/consensus)
# A block body's txn root is computed once, at the seal,
# and the VerifiedBlock travels (DESIGN.md §11); no consensus code
# rebuilds it per receiver.
if grep -rnE 'VerifyTxnRoot|VerifiedBlock::Verify' src/consensus; then
  echo "a body's txn root is computed once, at the seal: pass the ledger::VerifiedBlock on instead of re-verifying it per receiver"
  exit 1
fi

# --- One txn encoder (src/)
# txn::EncodeTxn is the one writer of a txn's fields; the
# digest hashes its bytes and the block codec calls it (DESIGN.md
# §11, §13). A second walk is how unprefixed fields let two txns
# share a digest.
hits=$(grep -rnE '\bUpdate\([^)]*\bop\.' src;
       grep -rnE 'Put[A-Za-z0-9]*\([^)]*\bop\.' src --exclude-dir=txn || true)
if [ -n "$hits" ]; then
  echo "$hits"
  echo "encode a txn with txn::EncodeTxn and hash its bytes; do not hash or write op fields directly"
  exit 1
fi

# --- Wire sizes from the txn encoder (src/)
# Every txn-dependent wire size is a length of the one txn
# layout (DESIGN.md §11): an inline batch and a shard message charge
# txn::EncodedSize, a block body the encoded_bytes() its seal took.
# A byte count per txn or per op is a guess that drifts from it.
hits=$(grep -rnE '(txns|ops)\.size\(\) *\* *[0-9]|[0-9] *\* *[A-Za-z_.>()-]*(txns|ops)\.size\(\)' src || true)
if [ -n "$hits" ]; then
  echo "$hits"
  echo "charge a message its txns' encoded bytes (txn::EncodedSize, VerifiedBlock::encoded_bytes), not a constant per txn or per op"
  exit 1
fi

# --- One txn copy per cluster (src/)
# One copy of each txn per cluster (DESIGN.md §11). The
# pools share one submitted txn, and a batch, its block body and
# every replica's chain share one immutable txn::TxnList; a
# by-value txn vector or submit copies it once per replica again.
hits=$(grep -nE 'std::vector<txn::Transaction> +txns;' src/ledger/block.h src/consensus/types.h;
       grep -rnE 'SubmitTransaction\(txn::Transaction' src/consensus || true)
if [ -n "$hits" ]; then
  echo "$hits"
  echo "share txns: Block and Batch hold a txn::TxnList, and SubmitTransaction takes a std::shared_ptr<const txn::Transaction>"
  exit 1
fi

# --- One version per key (src/)
# The world state keeps one entry per key, the latest value
# and version (DESIGN.md §13): the MVCC gate compares reads
# with the latest version, and no reader needs an older one. A
# snapshot read or a reader callback brings the version chains back.
hits=$(grep -rnE '\bLatestAt\b|\bSnapshotReader\b|\btxn::Reader\b' src || true)
if [ -n "$hits" ]; then
  echo "$hits"
  echo "the store keeps one version per key: execute against a const store::KvStore&, read KvStore::Latest"
  exit 1
fi

# --- Fault-free runs fetch no body
# A fault-free run fetches no block body (DESIGN.md,
# "Hash-ordering vs body dissemination"). The body travels beside its
# ref, so a parked ref waits one jitter bound before it fetches. No
# fault-free E4 cell may count a block-fetch, and the traced
# bft-order and fabric-pipeline baselines must pin 0, so a baseline
# --update cannot quietly bring the redundant fetches back.
if grep -n 'net\.sent\.block-fetch' bench/baseline/e4_consensus.txt; then
  echo "a fault-free E4 cell fetched a block body"
  exit 1
fi
for w in bft-order fabric-pipeline; do
  f=bench/baseline/perfbench-$w-trace.txt
  if ! grep -qx 'metrics\.net\.sent\.block-fetch\.value = 0' "$f"; then
    grep -n 'block-fetch' "$f"
    echo "$f must pin metrics.net.sent.block-fetch.value = 0"
    exit 1
  fi
done
