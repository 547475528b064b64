// One simulated world, on which the check harness, the e-benches, the
// tests and the examples build their runs (DESIGN.md §7).
#ifndef PBC_SIM_WORLD_H_
#define PBC_SIM_WORLD_H_

#include <cstdint>

#include "crypto/auth.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace pbc::sim {

/// \brief A simulator, a network with the default `LinkLatency{}` links,
/// the key registry replicas sign with, and the metrics/trace sinks. It
/// is unobserved until `Observe()`; observing never changes a run.
struct World {
  explicit World(uint64_t seed) : sim(seed), net(&sim) {}
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  /// Attaches `metrics` and `trace` to the simulator and the network, so
  /// every instrumented layer above them records too.
  void Observe() {
    sim.AttachMetrics(&metrics);
    net.AttachObs(&metrics, &trace);
  }

  // Declared before sim/net so they outlive them on destruction.
  obs::MetricsRegistry metrics;
  obs::TraceLog trace;
  Simulator sim;
  Network net;
  crypto::KeyRegistry registry;
};

}  // namespace pbc::sim

#endif  // PBC_SIM_WORLD_H_
