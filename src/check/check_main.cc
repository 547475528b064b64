// check_runner: seed-sweep driver for the simulation-testing subsystem.
//
// Examples:
//   check_runner --seeds 200 --protocol all --nemesis crash,partition
//   check_runner --protocol raft --nemesis crash --seeds 1 --seed-base 17
//   check_runner --protocol pbft --nemesis byzantine --mutate-quorum 1
//
// --nemesis takes ONE profile (a CSV of fault classes); pass several
// profiles as separate cells with ';': --nemesis "crash;crash,partition".
// Exit status: 0 = no invariant violated, 1 = violations, 2 = bad usage
// (an unknown flag, protocol, nemesis token or adversary mode, a malformed
// number, or a zero cluster size or shard count), reported before any
// cell runs.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "check/runner.h"

namespace {

void Usage() {
  std::fprintf(stderr, "usage: check_runner [options]\n");
  for (const pbc::check::RunFlag& flag : pbc::check::RunFlags()) {
    std::string head = std::string(flag.name) + " " +
                       (flag.metavar ? flag.metavar : "");
    std::string help = flag.help;
    for (size_t at = 0; (at = help.find('\n', at)) != std::string::npos;) {
      help.insert(++at, 24, ' ');
    }
    std::fprintf(stderr, "  %-21s %s\n", head.c_str(), help.c_str());
  }
  std::fprintf(
      stderr,
      "  --no-shrink           report failures without shrinking\n"
      "  --shrink-budget N     max replays per failure (default 32)\n"
      "  --jobs N              worker threads (default: hardware\n"
      "                        concurrency; 1 = serial). The report is\n"
      "                        byte-identical for every N; only wall_ms\n"
      "                        changes\n"
      "  --report PATH         write the JSON report to PATH\n"
      "  --quiet               no per-run progress lines\n"
      "protocols:");
  for (const auto& row : pbc::check::NameTable<pbc::check::Protocol>::rows) {
    std::fprintf(stderr, " %s", row.name);
  }
  std::fprintf(stderr, "\n");
}

}  // namespace

int main(int argc, char** argv) {
  pbc::check::SweepOptions options;
  options.jobs = 0;  // CLI default: hardware concurrency (library: serial)
  std::string report_path;
  bool quiet = false;

  auto need_value = [&](int i) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "check_runner: %s needs a value\n", argv[i]);
      Usage();
      std::exit(2);
    }
    return argv[i + 1];
  };

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    bool ok = true;  // false: the value after `arg` is malformed
    if (const pbc::check::RunFlag* flag = pbc::check::FindRunFlag(arg)) {
      std::string value = flag->metavar ? need_value(i++) : "";
      ok = flag->sweep ? flag->sweep(value, &options)
                       : flag->parse(value, &options.base);
    } else if (!std::strcmp(arg, "--no-shrink")) {
      options.shrink = false;
    } else if (!std::strcmp(arg, "--shrink-budget")) {
      ok = pbc::check::ParseCount(need_value(i++), &options.shrink_budget);
    } else if (!std::strcmp(arg, "--jobs")) {
      ok = pbc::check::ParseCount(need_value(i++), &options.jobs);
    } else if (!std::strcmp(arg, "--report")) {
      report_path = need_value(i++);
    } else if (!std::strcmp(arg, "--quiet")) {
      quiet = true;
    } else if (!std::strcmp(arg, "--help") || !std::strcmp(arg, "-h")) {
      Usage();
      return 0;
    } else {
      std::fprintf(stderr, "check_runner: unknown flag %s\n", arg);
      Usage();
      return 2;
    }
    if (!ok) {
      std::fprintf(stderr, "check_runner: bad value '%s' for %s\n", argv[i],
                   arg);
      Usage();
      return 2;
    }
  }

  // detlint:allow(wall-clock) wall_ms is operator telemetry, kept out of
  // the deterministic "report" subtree and stripped by the CI byte-
  // identity diff; it is deliberately the only wall-clock read here.
  auto t0 = std::chrono::steady_clock::now();
  pbc::obs::MetricsRegistry scheduler_metrics;
  options.scheduler_metrics = &scheduler_metrics;
  pbc::check::ProgressFn progress;
  if (!quiet) {
    progress = [](const pbc::check::RunConfig& cfg,
                  const pbc::check::RunResult& result) {
      std::fprintf(stderr, "[%s] %-10s n=%zu nemesis=%-24s seed=%llu%s\n",
                   result.ok() ? (result.live ? "ok" : "OK*") : "VIOLATION",
                   pbc::check::NameOf(cfg.protocol), cfg.cluster_size,
                   cfg.nemesis.ToString().c_str(),
                   static_cast<unsigned long long>(cfg.seed),
                   result.live ? "" : " (not live)");
    };
  }
  pbc::check::SweepReport report =
      pbc::check::RunSweep(options, progress);
  auto wall_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                     // detlint:allow(wall-clock) closes the wall_ms
                     // telemetry interval opened at t0 above
                     std::chrono::steady_clock::now() - t0)
                     .count();

  std::printf("check_runner: %zu runs, %zu live, %zu violating (%lld ms)\n",
              report.runs, report.live_runs, report.failures.size(),
              static_cast<long long>(wall_ms));
  if (!quiet && scheduler_metrics.CounterValue("scheduler.jobs_run") > 0) {
    // Scheduler counters are wall-clock-dependent, so they go to stderr,
    // never into the (byte-deterministic) JSON report.
    std::fprintf(
        stderr,
        "scheduler: %llu jobs across %lld workers, %llu steals, "
        "%llu cancelled, max queue depth %lld\n",
        static_cast<unsigned long long>(
            scheduler_metrics.CounterValue("scheduler.jobs_run")),
        static_cast<long long>(
            scheduler_metrics.FindGauge("scheduler.workers")->value()),
        static_cast<unsigned long long>(
            scheduler_metrics.CounterValue("scheduler.steals")),
        static_cast<unsigned long long>(
            scheduler_metrics.CounterValue("scheduler.cancelled")),
        static_cast<long long>(
            scheduler_metrics.FindGauge("scheduler.max_queue_depth")
                ->value()));
  }
  for (const std::string& line : report.not_live) {
    std::printf("  not live (no violation): %s\n", line.c_str());
  }
  for (const pbc::check::SweepFailure& f : report.failures) {
    std::printf("VIOLATION  repro: %s\n", f.config.ReproLine().c_str());
    for (const pbc::check::Violation& v : f.violations) {
      std::printf("  [%s] %s (t=%llu us)\n", v.invariant.c_str(),
                  v.detail.c_str(), static_cast<unsigned long long>(v.at));
    }
    std::printf("  shrunk to %zu window(s) in %zu replay(s): %s\n",
                f.shrunk_windows.size(), f.shrink_replays,
                f.shrunk_schedule.empty()
                    ? "(empty schedule — fails fault-free)"
                    : f.shrunk_schedule.Describe().c_str());
  }

  if (!report_path.empty()) {
    // wall_ms is the only nondeterministic field; everything under
    // "report" is a pure function of the sweep options.
    pbc::obs::Json doc =
        pbc::obs::Json::Object()
            .Set("tool", "check_runner")
            .Set("wall_ms", static_cast<uint64_t>(wall_ms))
            .Set("report", report.ToJson());
    if (!doc.WriteFile(report_path)) {
      std::fprintf(stderr, "check_runner: cannot write %s\n",
                   report_path.c_str());
      return 2;
    }
    std::printf("report written to %s\n", report_path.c_str());
  }
  return report.ok() ? 0 : 1;
}
