// Seed-sweep driver: runs N seeds across {protocol, cluster size, nemesis
// profile}, reports violations with exact (config, seed) repro lines, and
// shrinks failing schedules to minimal window subsets by deterministic
// replay.
#ifndef PBC_CHECK_RUNNER_H_
#define PBC_CHECK_RUNNER_H_

#include <functional>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "check/harness.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"

namespace pbc::check {

/// \brief The sweep grid: every (protocol, cluster size, nemesis) cell runs
/// `seeds` consecutive seeds starting at `base.seed`.
struct SweepOptions {
  /// Every cell's run settings. Its `protocol`, `nemesis` and
  /// `cluster_size` are ignored (the axes below set them), and `seed` is
  /// the grid's first seed.
  RunConfig base;
  std::vector<Protocol> protocols = KnownProtocols();
  /// One cell per profile.
  std::vector<NemesisProfile> nemeses = {{.crash = true}};
  std::vector<size_t> cluster_sizes = {4};
  size_t seeds = 20;
  /// Shrink each failure's schedule before reporting.
  bool shrink = true;
  /// Max replays ShrinkFailure may spend per failure.
  size_t shrink_budget = 32;
  /// Worker threads for the sweep: every (protocol, cluster size,
  /// nemesis, seed) cell runs as an independent job with its own
  /// simulator, and results merge in deterministic cell order — the
  /// report is byte-identical for every value of `jobs`; only wall time
  /// changes. 1 = serial (the default for library callers; check_runner
  /// defaults to hardware concurrency), 0 = hardware concurrency.
  size_t jobs = 1;
  /// Optional: receives the parallel engine's counters after the sweep
  /// (scheduler.jobs_run / steals / cancelled / max_queue_depth /
  /// workers). Left untouched when the sweep ran serially.
  /// Not part of the report — scheduler behavior is nondeterministic.
  obs::MetricsRegistry* scheduler_metrics = nullptr;

  /// One config per grid cell, reduced to what the protocol's family can
  /// host: the "byzantine" token is dropped outside BFT protocols, and
  /// sharded protocols run the random adversary, non-durable (without the
  /// disk-fault tokens) and with `base.num_shards`, which other protocols
  /// leave at its default. A reduced cell that duplicates another is
  /// skipped.
  std::vector<RunConfig> Expand() const;
};

/// \brief One per-run command-line flag. RunFlags() is the only place a
/// run flag is defined, and the only place run settings are read from
/// text: ReproLine prints through it, ParseReproLine reads a repro line
/// back, and check_runner parses and documents its options. A parse fails
/// on an unknown name and on a zero cluster size or shard count.
struct RunFlag {
  const char* name;
  const char* metavar;  ///< nullptr for a switch
  const char* help;
  /// The value ReproLine prints, or nullopt to leave the flag out.
  std::optional<std::string> (*print)(const RunConfig&);
  /// Sets the flag's field of one run; false when `value` is malformed.
  bool (*parse)(const std::string& value, RunConfig*);
  /// check_runner's reading of a grid axis (a list) or the seed count;
  /// nullptr when it parses into SweepOptions::base.
  bool (*sweep)(const std::string& value, SweepOptions*) = nullptr;
};

/// \brief The run-flag table, in ReproLine's order.
std::span<const RunFlag> RunFlags();
const RunFlag* FindRunFlag(const std::string& name);

/// \brief Parses a whole string as a decimal count, as the numeric run
/// flags do; false on anything else (sign, suffix, overflow, empty).
bool ParseCount(const std::string& s, size_t* out);

/// \brief Parses a RunConfig::ReproLine, with or without "check_runner",
/// over RunConfig defaults, in any flag order. Returns false with a reason
/// on an unknown flag, a bad value (see RunFlag), or more than one run
/// (`--seeds N>1`).
bool ParseReproLine(const std::string& line, RunConfig* cfg,
                    std::string* error);

/// \brief One failing run, with its shrunk repro.
struct SweepFailure {
  RunConfig config;
  std::vector<Violation> violations;
  bool live = false;
  /// Window ids of the shrunk (locally minimal) schedule; equals the full
  /// window set when shrinking is disabled or the failure needs them all.
  std::vector<uint64_t> shrunk_windows;
  /// The shrunk schedule itself (replay with RunWithSchedule; `repro`
  /// alone reruns the whole generated schedule).
  NemesisSchedule shrunk_schedule;
  size_t shrink_replays = 0;

  obs::Json ToJson() const;
};

/// \brief Aggregate result of a sweep.
struct SweepReport {
  size_t runs = 0;
  size_t live_runs = 0;
  /// Simulator events executed, summed over every run (shrink replays
  /// excluded): a clean run that changes at all changes this.
  uint64_t sim_events = 0;
  std::vector<SweepFailure> failures;
  /// Invariant name → total checker invocations across all runs.
  std::map<std::string, uint64_t> coverage;
  /// Liveness stragglers (config repro lines that missed the horizon but
  /// violated nothing) — reported, not failures.
  std::vector<std::string> not_live;

  bool ok() const { return failures.empty(); }
  /// Deterministic for a fixed option set: contains no wall-clock fields
  /// (the runner binary stamps "wall_ms" separately).
  obs::Json ToJson() const;
};

/// \brief Replays `schedule` subsets to find a locally minimal set of
/// windows that still violates an invariant under `config`. Returns the
/// shrunk schedule; `replays_out` (optional) receives the replay count.
///
/// With a pool, each ddmin round's candidate windows are probed
/// concurrently with first-failure cancellation: once a candidate
/// reproduces, probes for later candidates are cancelled (earlier ones
/// must still finish — the round takes the *lowest* reproducing index, so
/// the shrunk schedule and the charged replay count are identical to a
/// serial run).
NemesisSchedule ShrinkFailure(const RunConfig& config,
                              const NemesisSchedule& schedule, size_t budget,
                              size_t* replays_out = nullptr,
                              ThreadPool* pool = nullptr);

/// \brief Runs the whole sweep. `progress` (optional) is invoked after
/// every run — the runner binary uses it for per-run log lines. Under
/// `options.jobs > 1` it is called from worker threads (serialized by a
/// mutex) in completion order rather than grid order.
using ProgressFn =
    std::function<void(const RunConfig&, const RunResult&)>;
SweepReport RunSweep(const SweepOptions& options,
                     const ProgressFn& progress = nullptr);

/// \brief Runs an explicit list of fully-specified configs (each one
/// run, seed included) instead of an expanded grid. RunSweep delegates
/// here; the golden determinism tests drive it with the committed seed
/// corpus. Results always merge in `cells` order.
SweepReport RunSweepCells(const std::vector<RunConfig>& cells,
                          const SweepOptions& options,
                          const ProgressFn& progress = nullptr);

}  // namespace pbc::check

#endif  // PBC_CHECK_RUNNER_H_
