// Fabric++ and FabricSharp architectures: XOV plus intra-block reordering
// (see reorder.h for the algorithms and the modeling notes).
//
// Both systems also filter, before ordering, transactions whose reads are
// already stale. Here endorsement runs at block entry against
// last_committed() — the very state such a filter would check — so no
// transaction can be stale on arrival and the filter is subsumed: only
// the reorder plan and the gate decide aborts.
#ifndef PBC_ARCH_FABRICPP_H_
#define PBC_ARCH_FABRICPP_H_

#include "arch/reorder.h"
#include "arch/xov.h"

namespace pbc::arch {

/// \brief Fabric++: reorder within the block to a serializable order;
/// abort every transaction caught on a dependency cycle.
class FabricPPArchitecture : public XovBase {
 public:
  using XovBase::XovBase;
  const char* name() const override { return "Fabric++"; }

 protected:
  std::vector<size_t> GateOrder(
      const std::vector<Endorsed>& endorsed) override {
    return ReorderBlock(endorsed, /*minimal_aborts=*/false).order;
  }
};

/// \brief FabricSharp: reorder, aborting only a greedy feedback vertex
/// set of the block's dependency cycles.
class FabricSharpArchitecture : public XovBase {
 public:
  using XovBase::XovBase;
  const char* name() const override { return "FabricSharp"; }

 protected:
  std::vector<size_t> GateOrder(
      const std::vector<Endorsed>& endorsed) override {
    return ReorderBlock(endorsed, /*minimal_aborts=*/true).order;
  }
};

}  // namespace pbc::arch

#endif  // PBC_ARCH_FABRICPP_H_
