#include "check/nemesis.h"

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <sstream>
#include <utility>

namespace pbc::check {

namespace {

/// NemesisProfile's tokens, in ToString's order.
constexpr std::pair<const char*, bool NemesisProfile::*> kProfileTokens[] = {
    {"crash", &NemesisProfile::crash},
    {"partition", &NemesisProfile::partition},
    {"delay", &NemesisProfile::delay},
    {"byzantine", &NemesisProfile::byzantine},
    {"torn-write", &NemesisProfile::torn_write},
    {"lost-flush", &NemesisProfile::lost_flush},
};

/// A JSON value as Describe prints it: strings bare, arrays on one line.
std::string Compact(const obs::Json& v) {
  if (v.type() == obs::Json::Type::kString) return v.str();
  if (v.type() != obs::Json::Type::kArray) return v.Dump();
  std::string s = "[";
  for (const obs::Json& item : v.array()) {
    if (s.size() > 1) s += ',';
    s += Compact(item);
  }
  return s + "]";
}

}  // namespace

bool NemesisProfile::Parse(const std::string& csv, NemesisProfile* out) {
  *out = NemesisProfile{};
  if (csv == "none") return true;
  std::stringstream ss(csv);
  std::string token;
  while (std::getline(ss, token, ',')) {
    const auto* it = std::find_if(
        std::begin(kProfileTokens), std::end(kProfileTokens),
        [&token](const auto& t) { return token == t.first; });
    if (it == std::end(kProfileTokens)) return false;
    out->*(it->second) = true;
  }
  return !csv.empty();
}

std::string NemesisProfile::ToString() const {
  std::string s;
  for (const auto& [name, field] : kProfileTokens) {
    if (this->*field) s += (s.empty() ? "" : ",") + std::string(name);
  }
  return s.empty() ? "none" : s;
}

obs::Json NemesisEvent::ToJson() const {
  obs::Json j = obs::Json::Object()
                    .Set("at_us", at)
                    .Set("kind", NameOf(kind))
                    .Set("window", window);
  switch (kind) {
    case NemesisKind::kCrash:
    case NemesisKind::kRecover:
      j.Set("node", node);
      break;
    case NemesisKind::kPartition: {
      obs::Json gs = obs::Json::Array();
      for (const auto& g : groups) {
        obs::Json ids = obs::Json::Array();
        for (sim::NodeId id : g) ids.Push(id);
        gs.Push(std::move(ids));
      }
      j.Set("groups", std::move(gs));
      break;
    }
    case NemesisKind::kHeal:
      break;
    case NemesisKind::kDelay:
      j.Set("from", from)
          .Set("to", to)
          .Set("base_us", latency.base_us)
          .Set("jitter_us", latency.jitter_us);
      break;
    case NemesisKind::kClearDelay:
      j.Set("from", from).Set("to", to);
      break;
    case NemesisKind::kByzantine:
      j.Set("replica_index", static_cast<uint64_t>(replica_index))
          .Set("mode", NameOf(mode));
      break;
    case NemesisKind::kClockSkew:
      j.Set("node", node)
          .Set("rate_ppm", skew_ppm)
          .Set("offset_us", skew_offset_us);
      break;
    case NemesisKind::kTornWrite:
      j.Set("node", node).Set("tear_ppm", tear_ppm);
      break;
    case NemesisKind::kLostFlush:
    case NemesisKind::kRestoreFlush:
      j.Set("node", node);
      break;
  }
  return j;
}

std::string NemesisEvent::Describe() const {
  const obs::Json fields = ToJson();
  std::string s;
  for (const auto& [key, value] : fields.object()) {
    if (!s.empty()) s += ' ';
    s += key + "=" + Compact(value);
  }
  return s;
}

// --- Generation ------------------------------------------------------------

std::pair<NemesisEvent, NemesisEvent> FaultWindow(NemesisEvent down,
                                                  uint64_t window,
                                                  sim::Time start,
                                                  sim::Time end) {
  down.at = start;
  down.window = window;
  NemesisEvent up = down;
  up.at = end;
  switch (down.kind) {
    case NemesisKind::kPartition:
      up.kind = NemesisKind::kHeal;
      break;
    case NemesisKind::kDelay:
      up.kind = NemesisKind::kClearDelay;
      break;
    case NemesisKind::kLostFlush:
      up.kind = NemesisKind::kRestoreFlush;
      break;
    default:  // kCrash, kTornWrite
      up.kind = NemesisKind::kRecover;
      break;
  }
  return {std::move(down), std::move(up)};
}

NemesisSchedule NemesisSchedule::Generate(const NemesisProfile& profile,
                                          const NemesisTopology& topology,
                                          sim::Time horizon, uint64_t seed) {
  Rng rng(seed ^ 0x4E454D4553A5A5ULL);
  std::vector<NemesisEvent> events;
  uint64_t next_window = 1;

  const sim::Time start_max = horizon * 55 / 100;
  const sim::Time fault_end = horizon * 70 / 100;
  auto window_times = [&](sim::Time cursor) {
    sim::Time t1 = cursor + rng.NextU64(start_max > cursor
                                            ? start_max - cursor
                                            : 1);
    sim::Time dur = horizon / 20 + rng.NextU64(horizon / 4);
    sim::Time t2 = std::min<sim::Time>(t1 + dur, fault_end);
    return std::pair<sim::Time, sim::Time>(t1, t2);
  };
  auto add_window = [&](NemesisEvent down, sim::Time t1, sim::Time t2) {
    auto [start, end] = FaultWindow(std::move(down), next_window++, t1, t2);
    events.push_back(std::move(start));
    events.push_back(std::move(end));
  };
  // Up to `count` windows back to back, each starting after the previous
  // one ended; `draw` fills in a window's fault, or returns false to stop.
  auto sequential = [&](size_t count,
                        const std::function<bool(NemesisEvent*)>& draw) {
    sim::Time cursor = 0;
    for (size_t w = 0; w < count && cursor < start_max; ++w) {
      auto [t1, t2] = window_times(cursor);
      if (t1 >= t2) break;
      NemesisEvent down;
      if (!draw(&down)) break;
      add_window(std::move(down), t1, t2);
      cursor = t2 + horizon / 100;
    }
  };

  // Byzantine assignment: at most one replica, charged against its
  // cluster's fault budget for the whole run.
  int byz_group = -1;
  sim::NodeId byz_node = ~sim::NodeId{0};
  if (profile.byzantine && topology.supports_byzantine &&
      !topology.groups.empty()) {
    size_t g = rng.NextU64(topology.groups.size());
    const auto& group = topology.groups[g];
    if (group.max_faulty >= 1 && !group.nodes.empty()) {
      size_t idx = rng.NextU64(group.nodes.size());
      NemesisEvent ev;
      ev.at = 0;
      ev.kind = NemesisKind::kByzantine;
      ev.window = next_window++;
      ev.replica_index = idx;
      ev.node = group.nodes[idx];
      double which = rng.NextDouble();
      ev.mode = which < 0.5   ? consensus::ByzantineMode::kEquivocate
                : which < 0.75 ? consensus::ByzantineMode::kVoteBoth
                               : consensus::ByzantineMode::kSilent;
      byz_group = static_cast<int>(g);
      byz_node = ev.node;
      events.push_back(ev);
    }
  }

  // Crash windows: per cluster, sequential (never more than one of a
  // cluster's nodes down at once — conservative within every f ≥ 1).
  // torn-write shares this budget loop: a torn write IS a crash whose
  // power cut leaks a partial disk flush, so it counts against the same
  // f. RNG back-compat: when profile.torn_write is false the torn branch
  // consumes zero draws, so pre-durable corpus seeds keep their exact
  // streams.
  if (profile.crash || profile.torn_write) {
    for (size_t g = 0; g < topology.groups.size(); ++g) {
      const auto& group = topology.groups[g];
      uint32_t budget = group.max_faulty;
      if (static_cast<int>(g) == byz_group && budget > 0) --budget;
      if (budget == 0) continue;
      std::vector<sim::NodeId> eligible;
      for (sim::NodeId id : group.nodes) {
        if (!topology.NeverCrashes(id) && id != byz_node) {
          eligible.push_back(id);
        }
      }
      if (eligible.empty()) continue;
      sequential(rng.NextU64(3), [&](NemesisEvent* down) {  // 0..2 windows
        down->node = eligible[rng.NextU64(eligible.size())];
        bool torn =
            profile.torn_write && (!profile.crash || rng.NextU64(2) == 0);
        down->kind = torn ? NemesisKind::kTornWrite : NemesisKind::kCrash;
        if (torn) down->tear_ppm = 300'000 + rng.NextU64(700'001);
        return true;
      });
    }
  }

  // Partition windows: global state, so windows are sequential.
  if (profile.partition && topology.all_nodes.size() >= 2) {
    sequential(rng.NextU64(3), [&](NemesisEvent* cut) {  // 0..2 windows
      std::vector<sim::NodeId> side_a, side_b;
      if (topology.partition_whole_network) {
        for (int attempt = 0; attempt < 8 && (side_a.empty() || side_b.empty());
             ++attempt) {
          side_a.clear();
          side_b.clear();
          for (sim::NodeId id : topology.all_nodes) {
            (rng.NextU64(2) == 0 ? side_a : side_b).push_back(id);
          }
        }
        if (side_a.empty() || side_b.empty()) {
          side_a.assign(1, topology.all_nodes[0]);
          side_b.assign(topology.all_nodes.begin() + 1,
                        topology.all_nodes.end());
        }
      } else {
        // Split one cluster's replicas; everyone else stays with side B.
        std::vector<size_t> splittable;
        for (size_t g = 0; g < topology.groups.size(); ++g) {
          if (topology.groups[g].nodes.size() >= 2) splittable.push_back(g);
        }
        if (splittable.empty()) return false;
        const auto& cluster =
            topology.groups[splittable[rng.NextU64(splittable.size())]];
        std::vector<sim::NodeId> members = cluster.nodes;
        for (size_t i = members.size(); i > 1; --i) {
          std::swap(members[i - 1], members[rng.NextU64(i)]);
        }
        size_t k = 1 + rng.NextU64(members.size() - 1);
        side_a.assign(members.begin(), members.begin() + k);
        std::set<sim::NodeId> in_a(side_a.begin(), side_a.end());
        for (sim::NodeId id : topology.all_nodes) {
          if (in_a.count(id) == 0) side_b.push_back(id);
        }
      }
      cut->kind = NemesisKind::kPartition;
      cut->groups = {std::move(side_a), std::move(side_b)};
      return true;
    });
  }

  // Delay windows: overlapping is fine; delays only reorder.
  if (profile.delay && topology.all_nodes.size() >= 2) {
    size_t count = rng.NextU64(4);  // 0..3 windows
    for (size_t w = 0; w < count; ++w) {
      auto [t1, t2] = window_times(0);
      if (t1 >= t2) continue;
      size_t a = rng.NextU64(topology.all_nodes.size());
      size_t b = rng.NextU64(topology.all_nodes.size() - 1);
      if (b >= a) ++b;
      NemesisEvent slow;
      slow.kind = NemesisKind::kDelay;
      slow.from = topology.all_nodes[a];
      slow.to = topology.all_nodes[b];
      slow.latency = {5000 + rng.NextU64(30000), rng.NextU64(5000)};
      add_window(std::move(slow), t1, t2);
    }
  }

  // Lost-flush windows: a lying disk acknowledges fsyncs but drops them
  // for one node. Harmless to protocol traffic — only durable runs react
  // (the harness rejects the profile token otherwise). Zero draws when
  // the profile bit is off.
  if (profile.lost_flush && !topology.all_nodes.empty()) {
    sequential(1 + rng.NextU64(2), [&](NemesisEvent* lose) {  // 1..2
      lose->kind = NemesisKind::kLostFlush;
      lose->node = topology.all_nodes[rng.NextU64(topology.all_nodes.size())];
      return true;
    });
  }

  return FromEvents(std::move(events));
}

NemesisSchedule NemesisSchedule::FromEvents(std::vector<NemesisEvent> events) {
  std::stable_sort(events.begin(), events.end(),
                   [](const NemesisEvent& a, const NemesisEvent& b) {
                     return a.at < b.at;
                   });
  NemesisSchedule s;
  s.events_ = std::move(events);
  return s;
}

std::vector<uint64_t> NemesisSchedule::WindowIds() const {
  std::set<uint64_t> ids;
  for (const NemesisEvent& ev : events_) ids.insert(ev.window);
  return std::vector<uint64_t>(ids.begin(), ids.end());
}

NemesisSchedule NemesisSchedule::Filtered(
    const std::vector<uint64_t>& windows) const {
  std::set<uint64_t> keep(windows.begin(), windows.end());
  std::vector<NemesisEvent> events;
  for (const NemesisEvent& ev : events_) {
    if (keep.count(ev.window) > 0) events.push_back(ev);
  }
  return FromEvents(std::move(events));
}

void FaultApplier::operator()(const NemesisEvent& ev) const {
  switch (ev.kind) {
    case NemesisKind::kCrash:
      net->Crash(ev.node);
      break;
    case NemesisKind::kRecover:
      net->Recover(ev.node);
      break;
    case NemesisKind::kPartition:
      net->Partition(ev.groups);
      break;
    case NemesisKind::kHeal:
      net->Heal();
      break;
    case NemesisKind::kDelay:
      net->SetDirectionalLinkLatency(ev.from, ev.to, ev.latency);
      break;
    case NemesisKind::kClearDelay:
      net->SetDirectionalLinkLatency(ev.from, ev.to, net->default_latency());
      break;
    case NemesisKind::kByzantine:
      if (set_byzantine) set_byzantine(ev);
      break;
    case NemesisKind::kClockSkew:
      net->SetClockSkew(ev.node, {ev.skew_ppm, ev.skew_offset_us});
      break;
    case NemesisKind::kTornWrite:
      // Arm the filesystem tear, then cut power, in one sim event: the
      // crash must see the pending tear, and nothing may run between.
      if (on_durable) on_durable(ev);
      net->Crash(ev.node);
      break;
    case NemesisKind::kLostFlush:
    case NemesisKind::kRestoreFlush:
      if (on_durable) on_durable(ev);
      break;
  }
}

void NemesisSchedule::Apply(sim::Simulator* sim,
                            const FaultApplier* applier) const {
  for (const NemesisEvent& ev : events_) {
    switch (ev.kind) {
      case NemesisKind::kByzantine:
        if (!applier->set_byzantine) continue;
        break;
      case NemesisKind::kLostFlush:
      case NemesisKind::kRestoreFlush:
        if (!applier->on_durable) continue;
        break;
      default:
        break;
    }
    bool at_start = ev.at == 0 && (ev.kind == NemesisKind::kByzantine ||
                                   ev.kind == NemesisKind::kClockSkew);
    if (at_start) {
      (*applier)(ev);
    } else {
      sim->Schedule(ev.at, [applier, ev] { (*applier)(ev); });
    }
  }
}

NemesisSchedule NemesisSchedule::Merged(const NemesisSchedule& a,
                                        const NemesisSchedule& b) {
  std::vector<NemesisEvent> events = a.events_;
  events.insert(events.end(), b.events_.begin(), b.events_.end());
  return FromEvents(std::move(events));
}

obs::Json NemesisSchedule::ToJson() const {
  obs::Json arr = obs::Json::Array();
  for (const NemesisEvent& ev : events_) arr.Push(ev.ToJson());
  return arr;
}

std::string NemesisSchedule::Describe() const {
  std::string s;
  for (const NemesisEvent& ev : events_) {
    if (!s.empty()) s += "; ";
    s += ev.Describe();
  }
  return s.empty() ? "(empty)" : s;
}

// --- Shrinking -------------------------------------------------------------

ShrinkBatchProbe SerialShrinkProbe(
    std::function<bool(const std::vector<uint64_t>&)> reproduces) {
  return [reproduces = std::move(reproduces)](
             const std::vector<std::vector<uint64_t>>& candidates,
             size_t max_probes, size_t* probes_charged) -> size_t {
    size_t limit = std::min(candidates.size(), max_probes);
    for (size_t i = 0; i < limit; ++i) {
      if (reproduces(candidates[i])) {
        *probes_charged = i + 1;
        return i;
      }
    }
    *probes_charged = limit;
    return SIZE_MAX;
  };
}

std::vector<uint64_t> ShrinkWindowsBatched(std::vector<uint64_t> windows,
                                           const ShrinkBatchProbe& probe,
                                           size_t budget, size_t* replays) {
  size_t unreported = 0;
  size_t& calls = replays != nullptr ? *replays : unreported;
  calls = 0;
  if (windows.empty()) return windows;
  auto probe_round =
      [&](const std::vector<std::vector<uint64_t>>& candidates) -> size_t {
    size_t charged = 0;
    size_t idx = probe(candidates, budget - calls, &charged);
    calls += charged;
    return idx;
  };
  if (probe_round({{}}) == 0) return {};

  std::vector<uint64_t> current = windows;
  size_t granularity = 2;
  while (current.size() >= 2 && calls < budget) {
    // One ddmin round: every "drop one chunk" complement at the current
    // granularity. The probe picks the first reproducing candidate —
    // exactly what the serial scan-and-break did, but batched so the
    // parallel engine can evaluate a whole round concurrently.
    size_t chunk = (current.size() + granularity - 1) / granularity;
    std::vector<std::vector<uint64_t>> candidates;
    for (size_t start = 0; start < current.size(); start += chunk) {
      std::vector<uint64_t> candidate;
      candidate.reserve(current.size());
      for (size_t i = 0; i < current.size(); ++i) {
        if (i < start || i >= start + chunk) candidate.push_back(current[i]);
      }
      if (candidate.size() == current.size() || candidate.empty()) continue;
      candidates.push_back(std::move(candidate));
    }
    size_t first = probe_round(candidates);
    if (first != SIZE_MAX) {
      current = std::move(candidates[first]);
      granularity = std::max<size_t>(2, granularity - 1);
    } else {
      if (granularity >= current.size()) break;
      granularity = std::min(current.size(), granularity * 2);
    }
  }
  return current;
}

}  // namespace pbc::check
