// Instrumentation macros. All metric/trace attach points in the hot paths
// (network sends, commit delivery, view changes) go through these. Each
// site is a nullptr check, plus a map lookup only for runs that attached
// a registry/trace via Network::AttachObs / Simulator::AttachMetrics; a
// null sink means off, and the arguments are then not evaluated.
// Instrumentation never feeds back into protocol behavior, so attaching
// it cannot change any simulation outcome (the determinism tests assert
// exactly that).
#ifndef PBC_OBS_OBS_H_
#define PBC_OBS_OBS_H_

#include "obs/metrics.h"
#include "obs/trace.h"

#define PBC_OBS_COUNT(reg, name, delta)                  \
  do {                                                   \
    ::pbc::obs::MetricsRegistry* pbc_obs_r_ = (reg);     \
    if (pbc_obs_r_ != nullptr)                           \
      pbc_obs_r_->GetCounter(name)->Add(delta);          \
  } while (0)

#define PBC_OBS_GAUGE_SET(reg, name, value)              \
  do {                                                   \
    ::pbc::obs::MetricsRegistry* pbc_obs_r_ = (reg);     \
    if (pbc_obs_r_ != nullptr)                           \
      pbc_obs_r_->GetGauge(name)->Set(                   \
          static_cast<int64_t>(value));                  \
  } while (0)

#define PBC_OBS_HIST_RECORD(reg, name, value)            \
  do {                                                   \
    ::pbc::obs::MetricsRegistry* pbc_obs_r_ = (reg);     \
    if (pbc_obs_r_ != nullptr)                           \
      pbc_obs_r_->GetHistogram(name)->Record(value);     \
  } while (0)

#define PBC_OBS_TRACE(trace, at, kind, a, b, label, arg) \
  do {                                                   \
    ::pbc::obs::TraceLog* pbc_obs_t_ = (trace);          \
    if (pbc_obs_t_ != nullptr)                           \
      pbc_obs_t_->Record(at, kind, a, b, label, arg);    \
  } while (0)

#endif  // PBC_OBS_OBS_H_
