#include "check/runner.h"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cstdint>
#include <iterator>
#include <mutex>
#include <sstream>
#include <type_traits>
#include <utility>

#include "check/adversary.h"

namespace pbc::check {

namespace {

std::vector<std::string> SplitList(const std::string& s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= s.size()) {
    size_t end = s.find(sep, start);
    if (end == std::string::npos) end = s.size();
    if (end > start) out.push_back(s.substr(start, end - start));
    start = end + 1;
  }
  return out;
}

template <typename T>
bool ParseValue(const std::string& s, T* out) {
  const char* end = s.data() + s.size();
  auto [ptr, ec] = std::from_chars(s.data(), end, *out);
  return ec == std::errc() && ptr == end;
}
template <typename E>
  requires std::is_enum_v<E>
bool ParseValue(const std::string& s, E* out) {
  return FromName(s, out);
}
bool ParseValue(const std::string& s, NemesisProfile* out) {
  return NemesisProfile::Parse(s, out);
}
bool ParseValue(const std::string&, bool* out) { return *out = true; }

template <typename T>
std::string Text(const T& v) {
  return std::to_string(v);
}
template <typename E>
  requires std::is_enum_v<E>
std::string Text(const E& v) {
  return NameOf(v);
}
std::string Text(const NemesisProfile& v) { return v.ToString(); }
std::string Text(bool) { return ""; }

using Printed = std::optional<std::string>;

/// Prints a field's value; unless `kAlways`, only while it differs from
/// the RunConfig default.
template <auto kField, bool kAlways = false>
Printed Print(const RunConfig& c) {
  if (!kAlways && c.*kField == RunConfig().*kField) return std::nullopt;
  return Text(c.*kField);
}
template <auto kField>
bool Parse(const std::string& value, RunConfig* c) {
  return ParseValue(value, &(c->*kField));
}
/// A count that must be at least 1.
template <auto kField>
bool ParsePositive(const std::string& value, RunConfig* c) {
  return Parse<kField>(value, c) && c->*kField > 0;
}
/// check_runner reads a grid axis as a `kSep`-separated list; "all" in the
/// protocol list stands for every protocol.
template <auto kAxis, char kSep>
bool ParseAxis(const std::string& list, SweepOptions* o) {
  auto& axis = o->*kAxis;
  axis.clear();
  for (const std::string& item : SplitList(list, kSep)) {
    if constexpr (std::is_same_v<decltype(axis), std::vector<Protocol>&>) {
      if (item == "all") {
        std::vector<Protocol> all = KnownProtocols();
        axis.insert(axis.end(), all.begin(), all.end());
        continue;
      }
    }
    if (!ParseValue(item, &axis.emplace_back())) return false;
  }
  return !axis.empty();
}

const RunFlag kRunFlags[] = {
    {"--protocol", "P[,P...]", "protocol(s) listed below, or all (default)",
     Print<&RunConfig::protocol, true>, Parse<&RunConfig::protocol>,
     ParseAxis<&SweepOptions::protocols, ','>},
    {"--cluster-size", "N[,N]", "replicas per cluster (default 4)",
     Print<&RunConfig::cluster_size, true>,
     ParsePositive<&RunConfig::cluster_size>,
     [](const std::string& v, SweepOptions* o) {
       return ParseAxis<&SweepOptions::cluster_sizes, ','>(v, o) &&
              std::count(o->cluster_sizes.begin(), o->cluster_sizes.end(),
                         0) == 0;
     }},
    {"--num-shards", "N", "shards for sharper/ahl (default 2)",
     [](const RunConfig& c) -> Printed {
       if (!InFamily(c.protocol, ProtocolFamily::kSharded)) return std::nullopt;
       return Text(c.num_shards);
     },
     ParsePositive<&RunConfig::num_shards>},
    {"--nemesis", "PROF[;PROF]",
     "fault profile(s); each PROF is a CSV of crash,\n"
     "partition,delay,byzantine,torn-write,lost-flush\n"
     "or none (default crash; disk faults need --durable)",
     Print<&RunConfig::nemesis, true>, Parse<&RunConfig::nemesis>,
     ParseAxis<&SweepOptions::nemeses, ';'>},
    {"--txns", "N", "client transactions per run (default 40)",
     Print<&RunConfig::txns, true>, Parse<&RunConfig::txns>},
    // A repro line names one run; check_runner reads the count itself.
    {"--seeds", "N", "seeds per grid cell (default 20)",
     [](const RunConfig&) -> Printed { return "1"; },
     [](const std::string& v, RunConfig*) { return v == "1"; },
     [](const std::string& v, SweepOptions* o) {
       return ParseValue(v, &o->seeds) && o->seeds > 0;
     }},
    {"--seed-base", "N", "first seed (default 0)",
     Print<&RunConfig::seed, true>, Parse<&RunConfig::seed>},
    {"--mutate-quorum", "N",
     "TEST-ONLY: lower BftQuorum and MajorityQuorum\n"
     "(PBFT, Raft, Paxos; not HotStuff or Tendermint)\n"
     "by N votes; sweeps must catch it",
     Print<&RunConfig::quorum_slack>, Parse<&RunConfig::quorum_slack>},
    {"--block-max-txns", "N",
     "run the consensus block pipeline with size cut N\n"
     "(default 0: inline batches)",
     Print<&RunConfig::block_max_txns>, Parse<&RunConfig::block_max_txns>},
    {"--adversary", "MODE",
     "random|leader|quorum|churn (default random); the\n"
     "others run the adaptive adversary (not sharded)",
     Print<&RunConfig::adversary>, Parse<&RunConfig::adversary>},
    {"--clock-skew", "PPM", "per-node clock skew, alternated +/-PPM (0 = off)",
     Print<&RunConfig::clock_skew_ppm>, Parse<&RunConfig::clock_skew_ppm>},
    {"--durable", nullptr,
     "per-replica durable ledgers on the sim filesystem\n"
     "and crash-recovery invariants (not sharded)",
     Print<&RunConfig::durable>, Parse<&RunConfig::durable>},
    {"--mutate-recovery", nullptr,
     "TEST-ONLY off-by-one torn-tail truncation in\n"
     "recovery; durable sweeps must catch it",
     Print<&RunConfig::mutate_recovery>, Parse<&RunConfig::mutate_recovery>},
};

}  // namespace

std::span<const RunFlag> RunFlags() { return kRunFlags; }

const RunFlag* FindRunFlag(const std::string& name) {
  for (const RunFlag& flag : kRunFlags) {
    if (name == flag.name) return &flag;
  }
  return nullptr;
}

bool ParseCount(const std::string& s, size_t* out) {
  return ParseValue(s, out);
}

std::string RunConfig::ReproLine() const {
  std::string line = "check_runner";
  for (const RunFlag& flag : kRunFlags) {
    Printed value = flag.print(*this);
    if (!value) continue;
    line += std::string(" ") + flag.name;
    if (flag.metavar != nullptr) line += " " + *value;
  }
  return line;
}

bool ParseReproLine(const std::string& line, RunConfig* cfg,
                    std::string* error) {
  std::istringstream in(line);
  std::vector<std::string> args{std::istream_iterator<std::string>(in), {}};
  RunConfig parsed;
  // Skips a leading "check_runner".
  for (size_t i = !args.empty() && args[0] == "check_runner";
       i < args.size(); ++i) {
    const std::string& name = args[i];
    const RunFlag* flag = FindRunFlag(name);
    std::string value = flag && flag->metavar && i + 1 < args.size()
                            ? args[++i]
                            : std::string();
    if (flag == nullptr || !flag->parse(value, &parsed)) {
      *error = "unknown run flag or bad value: " + name + " " + value;
      return false;
    }
  }
  *cfg = std::move(parsed);
  return true;
}

std::vector<RunConfig> SweepOptions::Expand() const {
  std::vector<RunConfig> cells;
  for (Protocol proto : protocols) {
    RunConfig cell = base;
    cell.protocol = proto;
    if (InFamily(proto, ProtocolFamily::kSharded)) {
      // Sharded cells host neither adaptive modes nor the durable layer
      // (see RunOne's config errors).
      cell.adversary = AdversaryMode::kRandom;
      cell.durable = false;
    } else {
      // MixSeed reads num_shards, which no other family's repro line
      // prints.
      cell.num_shards = RunConfig().num_shards;
    }
    cell.mutate_recovery = cell.durable && base.mutate_recovery;
    for (NemesisProfile profile : nemeses) {
      if (!InFamily(proto, ProtocolFamily::kBft)) profile.byzantine = false;
      if (!cell.durable) {
        // Disk faults need a disk (RunOne rejects them without one).
        profile.torn_write = false;
        profile.lost_flush = false;
      }
      // Adaptive modes ignore the generated profile entirely: normalize
      // it in the cell so {leader × crash} and {leader × delay} do not
      // masquerade as distinct coverage.
      cell.nemesis = cell.adversary == AdversaryMode::kRandom
                         ? profile
                         : NemesisProfile{};
      for (size_t size : cluster_sizes) {
        cell.cluster_size = size;
        if (std::find(cells.begin(), cells.end(), cell) == cells.end()) {
          cells.push_back(cell);
        }
      }
    }
  }
  return cells;
}

obs::Json SweepFailure::ToJson() const {
  obs::Json v = obs::Json::Array();
  for (const Violation& violation : violations) v.Push(violation.ToJson());
  obs::Json windows = obs::Json::Array();
  for (uint64_t w : shrunk_windows) windows.Push(w);
  return obs::Json::Object()
      .Set("config", config.ToJson())
      .Set("repro", config.ReproLine())
      .Set("live", live)
      .Set("violations", std::move(v))
      .Set("shrunk_windows", std::move(windows))
      .Set("shrink_replays", static_cast<uint64_t>(shrink_replays))
      .Set("shrunk_schedule", shrunk_schedule.ToJson());
}

obs::Json SweepReport::ToJson() const {
  obs::Json cov = obs::Json::Object();
  for (const auto& [name, count] : coverage) cov.Set(name, count);
  obs::Json fails = obs::Json::Array();
  for (const SweepFailure& f : failures) fails.Push(f.ToJson());
  obs::Json stragglers = obs::Json::Array();
  for (const std::string& line : not_live) stragglers.Push(line);
  return obs::Json::Object()
      .Set("runs", static_cast<uint64_t>(runs))
      .Set("live_runs", static_cast<uint64_t>(live_runs))
      .Set("sim_events", sim_events)
      .Set("violating_runs", static_cast<uint64_t>(failures.size()))
      .Set("coverage", std::move(cov))
      .Set("failures", std::move(fails))
      .Set("not_live", std::move(stragglers));
}

namespace {

/// Probes one ddmin round's candidates concurrently. Every probe replays
/// the run — a full simulation — so probes fan out as pool jobs, each
/// guarded by its own CancellationToken. When a candidate reproduces,
/// probes for *later* candidates are cancelled (cooperatively: ones that
/// already started run to completion; RunWithSchedule is not
/// interruptible). Earlier candidates always complete, so the returned
/// index is the lowest reproducing one — exactly what the serial
/// left-to-right scan returns — and the charged replay count matches the
/// serial scan too. That equivalence is what keeps sweep reports
/// byte-identical across --jobs values.
ShrinkBatchProbe ParallelShrinkProbe(const RunConfig& config,
                                     const NemesisSchedule& schedule,
                                     ThreadPool* pool) {
  return [&config, &schedule, pool](
             const std::vector<std::vector<uint64_t>>& candidates,
             size_t max_probes, size_t* probes_charged) -> size_t {
    size_t limit = std::min(candidates.size(), max_probes);
    std::vector<CancellationToken> tokens(limit);
    std::atomic<size_t> first{SIZE_MAX};
    TaskGroup group;
    for (size_t j = 0; j < limit; ++j) {
      pool->Submit(&group, tokens[j], [&, j] {
        RunResult r =
            RunWithSchedule(config, schedule.Filtered(candidates[j]));
        if (!r.ok()) {
          size_t cur = first.load();
          while (j < cur && !first.compare_exchange_weak(cur, j)) {
          }
          for (size_t k = j + 1; k < limit; ++k) tokens[k].Cancel();
        }
      });
    }
    pool->Wait(&group);
    size_t idx = first.load();
    *probes_charged = idx == SIZE_MAX ? limit : idx + 1;
    return idx;
  };
}

/// Outcome of one sweep cell, kept per-index so parallel runs merge into
/// the report in deterministic cell order regardless of completion order.
struct CellOutcome {
  bool ok = true;
  bool live = false;
  uint64_t sim_events = 0;
  std::map<std::string, uint64_t> coverage;
  SweepFailure failure;  // filled only when !ok
  std::string repro;     // filled only when ok && !live
};

CellOutcome RunCell(const RunConfig& cell, const SweepOptions& options,
                    ThreadPool* pool, const ProgressFn& progress,
                    std::mutex* progress_mu) {
  RunResult result = RunOne(cell);
  if (progress) {
    std::lock_guard<std::mutex> lock(*progress_mu);
    progress(cell, result);
  }
  CellOutcome out;
  out.ok = result.ok();
  out.live = result.live;
  out.sim_events = result.sim_events;
  out.coverage = result.coverage;
  if (!out.ok) {
    SweepFailure& failure = out.failure;
    failure.config = cell;
    failure.violations = result.violations;
    failure.live = result.live;
    if (options.shrink) {
      failure.shrunk_schedule =
          ShrinkFailure(cell, result.schedule, options.shrink_budget,
                        &failure.shrink_replays, pool);
    } else {
      failure.shrunk_schedule = result.schedule;
    }
    failure.shrunk_windows = failure.shrunk_schedule.WindowIds();
  } else if (!out.live) {
    out.repro = cell.ReproLine();
  }
  return out;
}

void ExportSchedulerMetrics(const ThreadPool& pool,
                            obs::MetricsRegistry* registry) {
  if (registry == nullptr) return;
  ThreadPool::Stats stats = pool.stats();
  registry->GetCounter("scheduler.jobs_run")->Add(stats.jobs_run);
  registry->GetCounter("scheduler.steals")->Add(stats.steals);
  registry->GetCounter("scheduler.cancelled")->Add(stats.cancelled);
  registry->GetGauge("scheduler.max_queue_depth")
      ->Set(static_cast<int64_t>(stats.max_queue_depth));
  registry->GetGauge("scheduler.workers")
      ->Set(static_cast<int64_t>(pool.num_threads()));
}

}  // namespace

NemesisSchedule ShrinkFailure(const RunConfig& config,
                              const NemesisSchedule& schedule, size_t budget,
                              size_t* replays_out, ThreadPool* pool) {
  ShrinkBatchProbe probe =
      pool != nullptr && pool->num_threads() > 1
          ? ParallelShrinkProbe(config, schedule, pool)
          : SerialShrinkProbe([&config, &schedule](
                                  const std::vector<uint64_t>& windows) {
              return !RunWithSchedule(config, schedule.Filtered(windows)).ok();
            });
  return schedule.Filtered(ShrinkWindowsBatched(schedule.WindowIds(), probe,
                                                budget, replays_out));
}

SweepReport RunSweepCells(const std::vector<RunConfig>& cells,
                          const SweepOptions& options,
                          const ProgressFn& progress) {
  size_t jobs =
      options.jobs == 0 ? ThreadPool::DefaultParallelism() : options.jobs;
  jobs = std::max<size_t>(1, std::min(jobs, cells.size()));

  std::vector<CellOutcome> outcomes(cells.size());
  std::mutex progress_mu;
  if (jobs <= 1) {
    for (size_t i = 0; i < cells.size(); ++i) {
      outcomes[i] = RunCell(cells[i], options, nullptr, progress, &progress_mu);
    }
  } else {
    ThreadPool pool(jobs);
    TaskGroup group;
    for (size_t i = 0; i < cells.size(); ++i) {
      pool.Submit(&group, [&, i] {
        outcomes[i] = RunCell(cells[i], options, &pool, progress, &progress_mu);
      });
    }
    pool.Wait(&group);
    ExportSchedulerMetrics(pool, options.scheduler_metrics);
  }

  // Deterministic merge: cell order, never completion order. Everything
  // in the report is a pure function of (cells, options).
  SweepReport report;
  for (size_t i = 0; i < cells.size(); ++i) {
    CellOutcome& out = outcomes[i];
    ++report.runs;
    if (out.live) ++report.live_runs;
    report.sim_events += out.sim_events;
    for (const auto& [name, count] : out.coverage) {
      report.coverage[name] += count;
    }
    if (!out.ok) {
      report.failures.push_back(std::move(out.failure));
    } else if (!out.live) {
      report.not_live.push_back(std::move(out.repro));
    }
  }
  return report;
}

SweepReport RunSweep(const SweepOptions& options, const ProgressFn& progress) {
  std::vector<RunConfig> cells;
  for (RunConfig cell : options.Expand()) {
    for (size_t i = 0; i < options.seeds; ++i) {
      cell.seed = options.base.seed + i;
      cells.push_back(cell);
    }
  }
  return RunSweepCells(cells, options, progress);
}

}  // namespace pbc::check
