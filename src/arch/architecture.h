// Transaction-processing architectures (§2.3.3 of the survey).
//
// An Architecture consumes ordered blocks of transactions and maintains the
// blockchain state (KvStore) plus the hash-chained ledger of *effective*
// (committed) transactions. The three families:
//   OX   — order-execute: sequential deterministic execution (Tendermint,
//          Quorum, Multichain, Iroha, Corda).
//   OXII — order-(parallel execute): orderers attach a conflict/dependency
//          graph; executors run non-conflicting transactions concurrently
//          (ParBlockchain).
//   XOV  — execute-order-validate: endorse (simulate) first, order, then
//          MVCC-validate; conflicting transactions abort (Fabric) — see
//          xov.h for Fabric and its descendants.
//
// Ordering itself is pluggable: benchmarks E1–E3 drive architectures with
// an in-process sequencer to isolate execution behaviour, exactly the
// methodological split the survey draws between the order and execute
// phases; consensus cost is measured separately (E4).
#ifndef PBC_ARCH_ARCHITECTURE_H_
#define PBC_ARCH_ARCHITECTURE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "ledger/chain.h"
#include "store/kv_store.h"
#include "txn/executor.h"
#include "txn/transaction.h"

namespace pbc::obs {
class MetricsRegistry;
}  // namespace pbc::obs

namespace pbc::arch {

/// \brief Counters accumulated across processed blocks.
struct ArchStats {
  uint64_t blocks = 0;
  uint64_t committed = 0;   ///< transactions whose effects applied
  uint64_t aborted = 0;     ///< discarded due to read-write conflicts
  uint64_t reordered = 0;   ///< txns moved by intra-block reordering
  uint64_t reexecuted = 0;  ///< re-run post-validation (XOX)
  uint64_t dag_edges = 0;   ///< reduced conflict edges (OXII/FastFabric)
  uint64_t dag_levels = 0;  ///< cumulative conflict levels (OXII/FastFabric)
};

/// \brief Common interface: feed ordered blocks, observe state + ledger.
class Architecture {
 public:
  explicit Architecture(ThreadPool* pool) : pool_(pool) {}
  virtual ~Architecture() = default;

  virtual const char* name() const = 0;

  /// Processes one ordered block. Appends the effective transactions to
  /// the ledger and updates the state store.
  virtual void ProcessBlock(const std::vector<txn::Transaction>& block) = 0;

  const store::KvStore& store() const { return store_; }
  const ledger::Chain& chain() const { return chain_; }
  const ArchStats& stats() const { return stats_; }

  /// Dumps the cumulative ArchStats into `m` as "arch.*" counters (no-op
  /// when `m` is nullptr). Used by the benches' JSON emitters.
  void ExportMetrics(obs::MetricsRegistry* m) const;

 protected:
  /// Appends the given transactions as the next ledger block (no-op when
  /// empty, mirroring the consensus layer's skip of empty batches).
  void AppendLedgerBlock(std::vector<txn::Transaction> effective);

  ThreadPool* pool_;
  store::KvStore store_;
  ledger::Chain chain_;
  ArchStats stats_;
};

/// \brief OX: execute every transaction sequentially in block order.
class OxArchitecture : public Architecture {
 public:
  using Architecture::Architecture;
  const char* name() const override { return "OX"; }
  void ProcessBlock(const std::vector<txn::Transaction>& block) override;
};

/// \brief OXII (ParBlockchain): conflict graph + parallel execution.
class OxiiArchitecture : public Architecture {
 public:
  using Architecture::Architecture;
  const char* name() const override { return "OXII"; }
  void ProcessBlock(const std::vector<txn::Transaction>& block) override;
};

}  // namespace pbc::arch

#endif  // PBC_ARCH_ARCHITECTURE_H_
