#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/attested_log.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "sim/world.h"

namespace pbc::sim {
namespace {

TEST(SimulatorTest, EventsRunInTimeOrder) {
  Simulator sim(1);
  std::vector<int> order;
  sim.Schedule(30, [&] { order.push_back(3); });
  sim.Schedule(10, [&] { order.push_back(1); });
  sim.Schedule(20, [&] { order.push_back(2); });
  sim.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30u);
}

TEST(SimulatorTest, TiesBreakFifo) {
  Simulator sim(1);
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) sim.Schedule(10, [&order, i] { order.push_back(i); });
  sim.RunAll();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SimulatorTest, NestedScheduling) {
  Simulator sim(1);
  int fired = 0;
  sim.Schedule(5, [&] {
    sim.Schedule(5, [&] { fired = 1; });
  });
  sim.RunAll();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 10u);
}

TEST(SimulatorTest, RunUntilPredicate) {
  Simulator sim(1);
  int count = 0;
  std::function<void()> tick = [&] {
    ++count;
    if (count < 100) sim.Schedule(10, tick);
  };
  sim.Schedule(10, tick);
  EXPECT_TRUE(sim.RunUntil([&] { return count >= 7; }, 1000000));
  EXPECT_EQ(count, 7);
}

TEST(SimulatorTest, RunStopsAtDeadline) {
  Simulator sim(1);
  int fired = 0;
  sim.Schedule(100, [&] { fired++; });
  sim.Schedule(200, [&] { fired++; });
  sim.Run(150);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 150u);
}

// --- Network ---------------------------------------------------------------

struct PingMsg : Typed<PingMsg> {
  int payload = 0;
  static constexpr char kType[] = "ping";
};

class EchoNode : public Node {
 public:
  EchoNode(NodeId id, Network* net) : Node(id, net) {}
  void OnMessage(NodeId from, const MessagePtr& msg) override {
    last_from = from;
    received.push_back(
        std::static_pointer_cast<const PingMsg>(msg)->payload);
  }
  NodeId last_from = 9999;
  std::vector<int> received;
};

struct PongMsg : Typed<PongMsg> {
  static constexpr char kType[] = "pong";
};

TEST(MessageTest, AsMatchesOwnTypeOnly) {
  PingMsg ping;
  PongMsg pong;
  EXPECT_EQ(As<PingMsg>(ping), &ping);
  EXPECT_EQ(As<PongMsg>(pong), &pong);
  EXPECT_EQ(As<PongMsg>(ping), nullptr);
  EXPECT_EQ(As<PingMsg>(pong), nullptr);
  EXPECT_STREQ(ping.type(), "ping");
}

std::shared_ptr<PingMsg> Ping(int v) {
  auto m = std::make_shared<PingMsg>();
  m->payload = v;
  return m;
}

// Each network test runs on a fresh seed-1 world.
class NetworkTest : public ::testing::Test {
 protected:
  World w{1};
  Simulator& sim = w.sim;
  Network& net = w.net;
};

TEST_F(NetworkTest, DeliversWithLatency) {
  net.SetDefaultLatency({100, 0});
  EchoNode a(0, &net), b(1, &net);
  net.Send(0, 1, Ping(42));
  sim.RunAll();
  EXPECT_EQ(b.received, std::vector<int>{42});
  EXPECT_EQ(b.last_from, 0u);
  EXPECT_EQ(sim.now(), 100u);
}

TEST_F(NetworkTest, CrashedNodeReceivesNothing) {
  EchoNode a(0, &net), b(1, &net);
  net.Crash(1);
  net.Send(0, 1, Ping(1));
  sim.RunAll();
  EXPECT_TRUE(b.received.empty());
  EXPECT_EQ(net.stats().messages_dropped, 1u);
}

TEST_F(NetworkTest, CrashAfterSendBeforeDeliveryDrops) {
  net.SetDefaultLatency({100, 0});
  EchoNode a(0, &net), b(1, &net);
  net.Send(0, 1, Ping(1));
  sim.Schedule(50, [&] { net.Crash(1); });
  sim.RunAll();
  EXPECT_TRUE(b.received.empty());
}

TEST_F(NetworkTest, RecoveredNodeReceivesAgain) {
  EchoNode a(0, &net), b(1, &net);
  net.Crash(1);
  net.Send(0, 1, Ping(1));
  sim.RunAll();
  net.Recover(1);
  net.Send(0, 1, Ping(2));
  sim.RunAll();
  EXPECT_EQ(b.received, std::vector<int>{2});
}

TEST_F(NetworkTest, PartitionBlocksCrossGroupTraffic) {
  EchoNode a(0, &net), b(1, &net), c(2, &net);
  net.Partition({{0, 1}, {2}});
  net.Send(0, 1, Ping(1));  // same group: delivered
  net.Send(0, 2, Ping(2));  // cross group: dropped
  sim.RunAll();
  EXPECT_EQ(b.received, std::vector<int>{1});
  EXPECT_TRUE(c.received.empty());
  net.Heal();
  net.Send(0, 2, Ping(3));
  sim.RunAll();
  EXPECT_EQ(c.received, std::vector<int>{3});
}

TEST_F(NetworkTest, DropRateDropsRoughlyThatFraction) {
  Simulator sim(99);
  Network net(&sim);
  net.SetDropRate(0.5);
  EchoNode a(0, &net), b(1, &net);
  for (int i = 0; i < 1000; ++i) net.Send(0, 1, Ping(i));
  sim.RunAll();
  EXPECT_NEAR(static_cast<double>(b.received.size()), 500.0, 100.0);
}

TEST_F(NetworkTest, PerLinkLatencyOverride) {
  net.SetDefaultLatency({10, 0});
  net.SetLinkLatency(0, 2, {1000, 0});
  EchoNode a(0, &net), b(1, &net), c(2, &net);
  net.Send(0, 1, Ping(1));
  net.Send(0, 2, Ping(2));
  sim.Run(100);
  EXPECT_EQ(b.received.size(), 1u);
  EXPECT_TRUE(c.received.empty());
  sim.RunAll();
  EXPECT_EQ(c.received.size(), 1u);
}

TEST_F(NetworkTest, StatsCountTraffic) {
  EchoNode a(0, &net), b(1, &net);
  for (int i = 0; i < 10; ++i) net.Send(0, 1, Ping(i));
  sim.RunAll();
  EXPECT_EQ(net.stats().messages_sent, 10u);
  EXPECT_EQ(net.stats().messages_delivered, 10u);
  EXPECT_GT(net.stats().bytes_sent, 0u);
}

TEST_F(NetworkTest, TimersSkipCrashedNodes) {
  EchoNode a(0, &net);
  int fired = 0;
  a.SetTimer(100, [&] { fired++; });
  net.Crash(0);
  sim.RunAll();
  EXPECT_EQ(fired, 0);
}

TEST_F(NetworkTest, IdenticalSeedsProduceIdenticalTraceAndMetricsBytes) {
  // Regression for the detlint `unordered-iter` rule (DESIGN.md §10):
  // Network::Start() used to walk an unordered_map, so the OnStart — and
  // therefore first-send — order depended on heap addresses and could
  // differ between two runs of the *same seed* within one process. The
  // trace and metrics dumps are the byte-level observables the seed-sweep
  // reports are built from, so they must match exactly.
  auto run = [](uint64_t seed) {
    World w(seed);
    w.Observe();
    w.net.SetDefaultLatency({100, 50});
    w.net.SetDropRate(0.1);

    // Nodes that gossip on start: start order reaches message order.
    class GossipNode : public Node {
     public:
      GossipNode(NodeId id, Network* net, int fanout)
          : Node(id, net), fanout_(fanout) {}
      void OnStart() override {
        for (int i = 0; i < fanout_; ++i) {
          Send((id() + 1 + static_cast<NodeId>(i)) % 5, Ping(i));
        }
      }
      void OnMessage(NodeId, const MessagePtr&) override {
        if (!replied_) {
          replied_ = true;
          Send((id() + 1) % 5, Ping(99));
        }
      }

     private:
      int fanout_;
      bool replied_ = false;
    };

    std::vector<std::unique_ptr<GossipNode>> nodes;
    for (NodeId id = 0; id < 5; ++id) {
      nodes.push_back(std::make_unique<GossipNode>(id, &w.net, 2));
    }
    w.net.Start();
    w.sim.Schedule(120, [&w] { w.net.Crash(3); });
    w.sim.Schedule(400, [&w] { w.net.Partition({{0, 1, 2}, {3, 4}}); });
    w.sim.Schedule(900, [&w] {
      w.net.Heal();
      w.net.Recover(3);
    });
    w.sim.RunAll();
    return w.trace.DumpString() + "\n---\n" + w.metrics.DebugString();
  };
  std::string first = run(7);
  EXPECT_EQ(first, run(7));
  // The bytes must actually depend on the seed (an empty-vs-empty
  // comparison would prove nothing).
  EXPECT_NE(first, run(8));
  EXPECT_NE(first.find("deliver"), std::string::npos);
}

TEST_F(NetworkTest, DeterministicAcrossRuns) {
  auto run = [](uint64_t seed) {
    Simulator sim(seed);
    Network net(&sim);
    net.SetDefaultLatency({100, 50});
    EchoNode a(0, &net), b(1, &net);
    for (int i = 0; i < 50; ++i) net.Send(0, 1, Ping(i));
    sim.RunAll();
    return b.received;
  };
  EXPECT_EQ(run(42), run(42));
}

// --- Fault-injection edge cases --------------------------------------------

TEST_F(NetworkTest, TimerArmedBeforeCrashNeverFiresAfterRecover) {
  // Regression: a timer armed pre-crash used to fire if the node recovered
  // before its deadline, resurrecting stale protocol state. Crash epochs
  // cancel it permanently.
  EchoNode a(0, &net);
  int fired = 0;
  a.SetTimer(100, [&] { fired++; });
  sim.Schedule(10, [&] { net.Crash(0); });
  sim.Schedule(20, [&] { net.Recover(0); });
  sim.RunAll();
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(net.CrashEpoch(0), 1u);
}

TEST_F(NetworkTest, TimerArmedAfterRecoverFires) {
  EchoNode a(0, &net);
  int fired = 0;
  net.Crash(0);
  net.Recover(0);
  a.SetTimer(100, [&] { fired++; });
  sim.RunAll();
  EXPECT_EQ(fired, 1);
}

TEST_F(NetworkTest, TimerSpanningTwoCrashEpochsStaysDead) {
  // Crash-recover-crash-recover: a timer from epoch 0 must not fire in
  // epoch 2 either.
  EchoNode a(0, &net);
  int fired = 0;
  a.SetTimer(200, [&] { fired++; });
  sim.Schedule(10, [&] { net.Crash(0); });
  sim.Schedule(20, [&] { net.Recover(0); });
  sim.Schedule(30, [&] { net.Crash(0); });
  sim.Schedule(40, [&] { net.Recover(0); });
  sim.RunAll();
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(net.CrashEpoch(0), 2u);
}

TEST_F(NetworkTest, PartitionDropsInFlightCrossGroupMessage) {
  // A message sent before the partition but still on the wire when the
  // cut happens must be dropped, not delivered late.
  net.SetDefaultLatency({100, 0});
  EchoNode a(0, &net), b(1, &net);
  net.Send(0, 1, Ping(1));
  sim.Schedule(50, [&] { net.Partition({{0}, {1}}); });
  sim.RunAll();
  EXPECT_TRUE(b.received.empty());
  EXPECT_EQ(net.stats().messages_dropped, 1u);
}

TEST_F(NetworkTest, HealDoesNotResurrectInFlightMessage) {
  // Partition cuts the wire; healing before the scheduled delivery time
  // must not bring the datagram back.
  net.SetDefaultLatency({100, 0});
  EchoNode a(0, &net), b(1, &net);
  net.Send(0, 1, Ping(1));
  sim.Schedule(30, [&] { net.Partition({{0}, {1}}); });
  sim.Schedule(60, [&] { net.Heal(); });
  sim.RunAll();
  EXPECT_TRUE(b.received.empty());
  EXPECT_EQ(net.stats().messages_dropped, 1u);
  // Fresh traffic after the heal flows normally.
  net.Send(0, 1, Ping(2));
  sim.RunAll();
  EXPECT_EQ(b.received, std::vector<int>{2});
}

TEST_F(NetworkTest, InFlightWithinGroupSurvivesPartition) {
  net.SetDefaultLatency({100, 0});
  EchoNode a(0, &net), b(1, &net), c(2, &net);
  net.Send(0, 1, Ping(1));  // same group once partitioned
  sim.Schedule(50, [&] { net.Partition({{0, 1}, {2}}); });
  sim.RunAll();
  EXPECT_EQ(b.received, std::vector<int>{1});
}

TEST_F(NetworkTest, DropLabelsNameWhatKilledAnInFlightMessage) {
  // Each message is sent at t and meets two faults before it lands at
  // t + 100. A cut since the send drops it as "partition" if any such cut
  // severed its link; otherwise a crashed end drops it as "crash".
  w.Observe();
  net.SetDefaultLatency({100, 0});
  EchoNode a(0, &net), b(1, &net), c(2, &net);
  auto dropped = [this](const std::string& label) {
    return w.metrics.CounterValue("net.dropped." + label);
  };

  // Cut, then healed, in flight: the heal does not resurrect it.
  net.Send(0, 1, Ping(1));
  sim.Schedule(30, [&] { net.Partition({{0}, {1, 2}}); });
  sim.Schedule(60, [&] { net.Heal(); });
  sim.RunAll();
  EXPECT_EQ(dropped("partition"), 1u);
  EXPECT_EQ(dropped("crash"), 0u);

  // The receiver crashes in flight, under a cut that keeps the link.
  net.Send(0, 1, Ping(2));
  sim.Schedule(30, [&] { net.Partition({{0, 1}, {2}}); });
  sim.Schedule(60, [&] { net.Crash(1); });
  sim.RunAll();
  EXPECT_EQ(dropped("partition"), 1u);
  EXPECT_EQ(dropped("crash"), 1u);
  net.Recover(1);
  net.Heal();

  // Cut across groups, then re-cut into one group before it lands: the
  // first cut killed it, and the re-cut does not resurrect it.
  net.Send(0, 2, Ping(3));
  sim.Schedule(30, [&] { net.Partition({{0}, {1, 2}}); });
  sim.Schedule(60, [&] { net.Partition({{0, 1, 2}}); });
  sim.RunAll();
  EXPECT_EQ(dropped("partition"), 2u);
  EXPECT_EQ(dropped("crash"), 1u);
  EXPECT_EQ(w.metrics.CounterValue("net.dropped"), 3u);
  EXPECT_TRUE(b.received.empty());
  EXPECT_TRUE(c.received.empty());
}

TEST_F(NetworkTest, RecoverRestartsANodeOnce) {
  // A crash kills a node's timers and a recovery restarts it: Recover runs
  // OnStart once, after the fault listener, and only for a crashed node.
  std::vector<std::string> log;
  class ProbeNode : public Node {
   public:
    ProbeNode(NodeId id, Network* net, std::vector<std::string>* log)
        : Node(id, net), log_(log) {}
    void OnStart() override {
      log_->push_back("start " + std::to_string(id()));
    }
    void OnMessage(NodeId, const MessagePtr&) override {}

   private:
    std::vector<std::string>* log_;
  };
  ProbeNode early(0, &net, &log), probe(1, &net, &log);
  net.SetFaultListener([&log](NodeId id, bool crashed) {
    log.push_back((crashed ? "crash " : "recover ") + std::to_string(id));
  });

  // Crashed and recovered before Start: Start starts it, once.
  net.Crash(0);
  net.Recover(0);
  EXPECT_EQ(log, (std::vector<std::string>{"crash 0", "recover 0"}));
  net.Start();
  EXPECT_EQ(log, (std::vector<std::string>{"crash 0", "recover 0", "start 0",
                                           "start 1"}));

  log.clear();
  net.Recover(1);  // not crashed: nothing to restart
  EXPECT_TRUE(log.empty());
  net.Crash(1);
  net.Recover(1);
  EXPECT_EQ(log,
            (std::vector<std::string>{"crash 1", "recover 1", "start 1"}));
}

TEST_F(NetworkTest, SetLinkLatencyIsSymmetric) {
  // Regression: SetLinkLatency(a, b) used to install only the a→b
  // direction, so "WAN" benches accidentally modelled asymmetric links.
  net.SetDefaultLatency({10, 0});
  net.SetLinkLatency(0, 1, {1000, 0});
  EchoNode a(0, &net), b(1, &net);
  net.Send(0, 1, Ping(1));
  net.Send(1, 0, Ping(2));
  sim.Run(500);
  EXPECT_TRUE(a.received.empty());  // reverse direction is also slow
  EXPECT_TRUE(b.received.empty());
  sim.RunAll();
  EXPECT_EQ(a.received, std::vector<int>{2});
  EXPECT_EQ(b.received, std::vector<int>{1});
  EXPECT_EQ(sim.now(), 1000u);
}

TEST_F(NetworkTest, DirectionalLatencyOverridesOneDirection) {
  net.SetDefaultLatency({10, 0});
  net.SetLinkLatency(0, 1, {1000, 0});
  net.SetDirectionalLinkLatency(1, 0, {50, 0});  // fast downlink only
  EchoNode a(0, &net), b(1, &net);
  net.Send(0, 1, Ping(1));
  net.Send(1, 0, Ping(2));
  sim.Run(100);
  EXPECT_EQ(a.received, std::vector<int>{2});  // 50us direction
  EXPECT_TRUE(b.received.empty());             // still 1000us
  sim.RunAll();
  EXPECT_EQ(b.received, std::vector<int>{1});
}

// --- Attested log ----------------------------------------------------------

TEST(AttestedLogTest, AttestAndVerify) {
  crypto::KeyRegistry registry;
  AttestedLog log(1, registry.Register(1));
  auto digest = crypto::Sha256::Digest(std::string("msg"));
  auto att = log.Attest(5, digest);
  ASSERT_TRUE(att.ok());
  EXPECT_TRUE(AttestedLog::Verify(registry, att.ValueOrDie()));
}

TEST(AttestedLogTest, EquivocationRefused) {
  crypto::KeyRegistry registry;
  AttestedLog log(1, registry.Register(1));
  auto d1 = crypto::Sha256::Digest(std::string("msg-to-alice"));
  auto d2 = crypto::Sha256::Digest(std::string("msg-to-bob"));
  ASSERT_TRUE(log.Attest(5, d1).ok());
  auto second = log.Attest(5, d2);
  EXPECT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kAlreadyExists);
}

TEST(AttestedLogTest, ReattestSameDigestIdempotent) {
  crypto::KeyRegistry registry;
  AttestedLog log(1, registry.Register(1));
  auto d = crypto::Sha256::Digest(std::string("msg"));
  ASSERT_TRUE(log.Attest(5, d).ok());
  EXPECT_TRUE(log.Attest(5, d).ok());
  EXPECT_EQ(log.size(), 1u);
}

TEST(AttestedLogTest, ForgedAttestationFailsVerification) {
  crypto::KeyRegistry registry;
  AttestedLog log(1, registry.Register(1));
  registry.Register(2);
  auto att = log.Attest(1, crypto::Sha256::Digest(std::string("m")))
                 .ValueOrDie();
  att.log_id = 2;  // claim it came from node 2's TEE
  EXPECT_FALSE(AttestedLog::Verify(registry, att));
  auto att2 = log.Attest(2, crypto::Sha256::Digest(std::string("m2")))
                  .ValueOrDie();
  att2.sequence = 3;  // replay at a different slot
  EXPECT_FALSE(AttestedLog::Verify(registry, att2));
}

}  // namespace
}  // namespace pbc::sim
