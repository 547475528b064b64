// Quickstart: the paper's Figure 1 — a permissioned blockchain of five
// known, identified nodes, each maintaining a copy of the hash-chained
// ledger, agreeing on transaction order with PBFT.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>
#include <utility>
#include <vector>

#include "consensus/cluster.h"
#include "consensus/pbft.h"
#include "sim/world.h"

using namespace pbc;

int main() {
  std::printf("== pbc quickstart: 5-node permissioned blockchain ==\n\n");

  // A deterministic simulated world: 0.5–0.7 ms network links, and the
  // membership service's key registry. Every run reproduces exactly.
  sim::World w(/*seed=*/2026);

  // Five registered identities (Figure 1).
  consensus::Cluster<consensus::PbftReplica> cluster(&w.net, &w.registry, 5);
  w.net.Start();

  // Clients submit transactions; any replica relays to the primary.
  std::printf("submitting 12 transactions...\n");
  for (int i = 0; i < 12; ++i) {
    cluster.Submit(consensus::MakeKvTxn(
        /*id=*/i + 1, "asset/" + std::to_string(i % 4),
        "owner-" + std::to_string(i)));
  }

  // Run the network until every replica committed everything.
  bool done = w.sim.RunUntil(
      [&] { return cluster.MinCommitted() >= 12; }, /*until=*/60'000'000);
  w.sim.Run(w.sim.now() + 2'000'000);  // let stragglers drain
  std::printf("consensus reached: %s (simulated time: %.1f ms)\n\n",
              done ? "yes" : "NO", w.sim.now() / 1000.0);

  // Every node now holds an identical hash-chained ledger.
  for (size_t i = 0; i < cluster.size(); ++i) {
    const ledger::Chain& chain = cluster.replica(i)->chain();
    std::printf("node %zu: height=%zu tip=%s committed_txns=%llu audit=%s\n",
                i, chain.height(), chain.TipHash().ToShortHex().c_str(),
                static_cast<unsigned long long>(
                    cluster.replica(i)->committed_txns()),
                chain.Audit().ok() ? "OK" : "CORRUPT");
  }
  std::printf("\nall replicas consistent: %s\n",
              cluster.ChainsConsistent() ? "yes" : "NO");

  // Immutability: any tampering with history is detected by the audit.
  // A chain's blocks share their txn lists with every replica, so a tamper
  // replaces the list rather than changing it in place.
  ledger::Chain tampered = cluster.replica(0)->chain();
  ledger::Block* victim = tampered.MutableBlockForTest(0);
  std::vector<txn::Transaction> stolen = victim->txns;
  stolen[0].ops[0].value = "stolen";
  victim->txns = std::move(stolen);
  std::printf("tamper detection: %s\n",
              tampered.Audit().IsCorruption() ? "caught" : "MISSED");

  // Merkle inclusion proof: prove one transaction is in a block without
  // shipping the block.
  const auto& chain = cluster.replica(0)->chain();
  auto proof = chain.ProveInclusion(0, 0);
  if (proof.ok()) {
    bool included = ledger::Chain::VerifyInclusion(
        chain.at(0).header, chain.at(0).txns[0].Digest(),
        proof.ValueOrDie());
    std::printf("merkle inclusion proof verifies: %s\n",
                included ? "yes" : "NO");
  }
  return done ? 0 : 1;
}
