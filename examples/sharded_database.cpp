// Large-scale database on an untrusted infrastructure (§2.1.2): a
// SharPer-style sharded permissioned blockchain. Each shard is a 4-replica
// PBFT cluster; intra-shard transfers use only local consensus, and
// cross-shard transfers run the flattened commit among the involved
// clusters. Money is conserved across the whole deployment.
//
// Build & run:  ./build/examples/sharded_database
#include <cstdio>

#include "shard/sharper.h"
#include "sim/world.h"
#include "workload/workload.h"

using namespace pbc;

int main() {
  std::printf("== sharded blockchain database (SharPer-style) ==\n\n");

  sim::World w(7);

  constexpr uint32_t kShards = 3;
  shard::SharperSystem db(&w.net, &w.registry, kShards);

  size_t done = 0, committed = 0;
  db.set_listener([&](txn::TxnId, bool ok) {
    ++done;
    committed += ok ? 1 : 0;
  });
  w.net.Start();

  // Seed accounts: 8 per shard, 100 coins each.
  workload::ShardedTransfers gen(kShards, 8, 100, /*cross_fraction=*/0.4, 3);
  auto deposits = gen.InitialDeposits();
  size_t total_submitted = deposits.size();
  for (auto& d : deposits) db.Submit(std::move(d));
  w.sim.RunUntil([&] { return done >= total_submitted; }, 120'000'000);
  std::printf("seeded %zu accounts across %u shards (total = %lld coins)\n",
              total_submitted, kShards,
              static_cast<long long>(gen.expected_total()));

  // Mixed workload: 60% intra-shard, 40% cross-shard transfers, arriving
  // every 5 ms (clients are spread over time; the no-wait 2PL policy would
  // otherwise abort racing transfers over the same accounts).
  constexpr int kTransfers = 30;
  for (int i = 0; i < kTransfers; ++i) {
    w.sim.Schedule(static_cast<sim::Time>(i) * 5000,
                   [&db, t = gen.NextTransfer()]() mutable {
                     db.Submit(std::move(t));
                   });
  }
  total_submitted += kTransfers;
  bool ok = w.sim.RunUntil([&] { return done >= total_submitted; },
                           300'000'000);
  w.sim.Run(w.sim.now() + 30'000'000);  // drain commit markers

  std::printf("processed %d transfers: %s (simulated time %.1f ms)\n",
              kTransfers, ok ? "done" : "TIMEOUT", w.sim.now() / 1000.0);
  std::printf("  intra-shard committed: %llu, aborted: %llu\n",
              static_cast<unsigned long long>(db.stats().intra_committed),
              static_cast<unsigned long long>(db.stats().intra_aborted));
  std::printf("  cross-shard committed: %llu, aborted: %llu\n",
              static_cast<unsigned long long>(db.stats().cross_committed),
              static_cast<unsigned long long>(db.stats().cross_aborted));

  // Per-shard ledgers are real PBFT chains.
  for (uint32_t s = 0; s < kShards; ++s) {
    auto* cluster = db.shard(s)->consensus();
    std::printf("shard %u: consensus height=%zu, replicas consistent=%s, "
                "keys=%zu\n",
                s, cluster->replica(0)->chain().height(),
                cluster->ChainsConsistent() ? "yes" : "NO",
                db.shard(s)->store()->num_keys());
  }

  long long balance = db.TotalBalance();
  std::printf("\nglobal balance: %lld (expected %lld) — %s\n", balance,
              static_cast<long long>(gen.expected_total()),
              balance == gen.expected_total() ? "money conserved"
                                              : "VIOLATION");
  std::printf("network: %llu messages, %llu bytes\n",
              static_cast<unsigned long long>(w.net.stats().messages_sent),
              static_cast<unsigned long long>(w.net.stats().bytes_sent));
  return balance == gen.expected_total() && ok ? 0 : 1;
}
