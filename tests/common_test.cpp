#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <set>
#include <stdexcept>

#include "common/bytes.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/thread_pool.h"

namespace pbc {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::Conflict("key clash");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsConflict());
  EXPECT_EQ(s.message(), "key clash");
  EXPECT_EQ(s.ToString(), "Conflict: key clash");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kInternal); ++c) {
    EXPECT_STRNE(StatusCodeToString(static_cast<StatusCode>(c)), "Unknown");
  }
}

TEST(StatusTest, ReturnNotOkMacroPropagates) {
  auto fails = [] { return Status::NotFound("x"); };
  auto wrapper = [&]() -> Status {
    PBC_RETURN_NOT_OK(fails());
    return Status::OK();
  };
  EXPECT_TRUE(wrapper().IsNotFound());
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie(), 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
  EXPECT_EQ(r.ValueOr(-1), -1);
}

TEST(ResultTest, AssignOrReturnMacro) {
  auto good = []() -> Result<int> { return 7; };
  auto bad = []() -> Result<int> { return Status::Internal("boom"); };
  auto use = [&](bool fail) -> Result<int> {
    PBC_ASSIGN_OR_RETURN(int v, fail ? bad() : good());
    return v * 2;
  };
  EXPECT_EQ(use(false).ValueOrDie(), 14);
  EXPECT_EQ(use(true).status().code(), StatusCode::kInternal);
}

TEST(BytesTest, HexEncode) {
  Bytes b = {0x00, 0xff, 0x10, 0xab};
  EXPECT_EQ(HexEncode(b), "00ff10ab");
}

TEST(BytesTest, RoundTripString) {
  std::string s = "hello\0world";
  EXPECT_EQ(ToString(ToBytes(s)), s);
}

TEST(BytesTest, AppendU64LittleEndian) {
  std::string b;
  PutU64(&b, 0x0102030405060708ULL);
  ASSERT_EQ(b.size(), 8u);
  EXPECT_EQ(b[0], 0x08);
  EXPECT_EQ(b[7], 0x01);
  Decoder dec{&b};
  uint64_t v = 0;
  ASSERT_TRUE(dec.GetU64(&v));
  EXPECT_EQ(v, 0x0102030405060708ULL);
  EXPECT_FALSE(dec.GetU64(&v));  // underrun
}

TEST(BytesTest, LengthPrefixed) {
  std::string b;
  PutString(&b, "abc");
  ASSERT_EQ(b.size(), 7u);
  EXPECT_EQ(b[0], 3);
  EXPECT_EQ(b[1], 0);
  EXPECT_EQ(b[4], 'a');
  Decoder dec{&b};
  std::string s;
  ASSERT_TRUE(dec.GetString(&s));
  EXPECT_EQ(s, "abc");
  EXPECT_EQ(dec.remaining(), 0u);
  b.pop_back();  // a short body is an underrun, not a shorter string
  Decoder cut{&b};
  EXPECT_FALSE(cut.GetString(&s));
}

TEST(RngTest, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(1000), b.NextU64(1000));
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.NextU64() == b.NextU64());
  EXPECT_LT(same, 3);
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(7);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(ZipfianTest, UniformWhenThetaZero) {
  Rng rng(11);
  Zipfian z(10, 0.0);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 10000; ++i) counts[z.Next(&rng)]++;
  for (int c : counts) EXPECT_NEAR(c, 1000, 250);
}

TEST(ZipfianTest, SkewConcentratesOnLowRanks) {
  Rng rng(11);
  Zipfian z(1000, 0.99);
  int low = 0;
  const int kDraws = 10000;
  for (int i = 0; i < kDraws; ++i) {
    uint64_t v = z.Next(&rng);
    ASSERT_LT(v, 1000u);
    if (v < 10) ++low;
  }
  // With theta=0.99, the top-10 of 1000 keys get a large share (>30%).
  EXPECT_GT(low, kDraws * 3 / 10);
}

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) pool.Submit([&] { count++; });
  pool.Wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversRange) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  pool.ParallelFor(257, [&](size_t i) { hits[i]++; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, WaitOnEmptyPoolReturns) {
  ThreadPool pool(2);
  pool.Wait();  // must not deadlock
  SUCCEED();
}

TEST(ThreadPoolTest, ReusableAcrossBatches) {
  ThreadPool pool(3);
  std::atomic<int> count{0};
  for (int round = 0; round < 5; ++round) {
    pool.ParallelFor(50, [&](size_t) { count++; });
  }
  EXPECT_EQ(count.load(), 250);
}

TEST(ThreadPoolTest, DestructionDrainsPendingTasks) {
  std::atomic<int> count{0};
  {
    // One worker, held busy while 200 tasks pile up; the destructor must
    // drain them all, not drop the queue.
    ThreadPool pool(1);
    std::promise<void> gate;
    std::shared_future<void> opened = gate.get_future().share();
    pool.Submit([opened] { opened.wait(); });
    for (int i = 0; i < 200; ++i) pool.Submit([&] { count++; });
    gate.set_value();
  }
  EXPECT_EQ(count.load(), 200);
}

TEST(ThreadPoolTest, CancelledJobsAreSkippedAndCounted) {
  ThreadPool pool(1);
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  std::promise<void> started;
  std::future<void> holding = started.get_future();
  TaskGroup group;
  pool.Submit(&group, [opened, &started] {  // hold the one worker
    started.set_value();
    opened.wait();
  });
  // The worker pops its own queue newest first, so the jobs below must not
  // be queued until it is inside the holding job.
  holding.wait();
  CancellationToken token;
  std::atomic<int> ran{0};
  for (int i = 0; i < 50; ++i) {
    pool.Submit(&group, token, [&] { ran++; });
  }
  token.Cancel();
  gate.set_value();
  pool.Wait(&group);
  EXPECT_EQ(ran.load(), 0);
  EXPECT_EQ(pool.stats().cancelled, 50u);
  EXPECT_EQ(group.pending(), 0u);  // cancelled jobs still complete the group
}

TEST(ThreadPoolTest, CancellationIsSticky) {
  ThreadPool pool(2);
  CancellationToken token;
  CancellationToken copy = token;  // copies share the flag
  token.Cancel();
  EXPECT_TRUE(copy.cancelled());
  TaskGroup group;
  std::atomic<int> ran{0};
  pool.Submit(&group, copy, [&] { ran++; });
  pool.Wait(&group);
  EXPECT_EQ(ran.load(), 0);
}

TEST(ThreadPoolTest, FutureCarriesResult) {
  ThreadPool pool(2);
  std::future<int> f = pool.SubmitWithFuture([] { return 6 * 7; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPoolTest, FutureCarriesException) {
  ThreadPool pool(2);
  std::future<int> f = pool.SubmitWithFuture(
      []() -> int { throw std::runtime_error("job failed"); });
  EXPECT_THROW(f.get(), std::runtime_error);
  pool.Wait();  // the pool survives a throwing job
  EXPECT_EQ(pool.SubmitWithFuture([] { return 1; }).get(), 1);
}

TEST(ThreadPoolTest, ParallelForRethrowsFirstException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.ParallelFor(64,
                                [](size_t i) {
                                  if (i == 13) throw std::runtime_error("13");
                                }),
               std::runtime_error);
  // The rethrow happens only after every chunk finished (the throwing
  // chunk abandons its remaining iterations); the pool stays usable.
  std::atomic<int> count{0};
  pool.ParallelFor(8, [&](size_t) { count++; });
  EXPECT_EQ(count.load(), 8);
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  // Outer iterations run as pool jobs; each calls ParallelFor on the SAME
  // pool. The helping Wait(group) is what keeps this from deadlocking.
  ThreadPool pool(4);
  std::atomic<int> count{0};
  pool.ParallelFor(8, [&](size_t) {
    pool.ParallelFor(16, [&](size_t) { count++; });
  });
  EXPECT_EQ(count.load(), 8 * 16);
}

TEST(ThreadPoolTest, NestedSubmitFromWorkerDoesNotDeadlock) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  TaskGroup outer;
  for (int i = 0; i < 4; ++i) {
    pool.Submit(&outer, [&] {
      TaskGroup inner;
      for (int j = 0; j < 8; ++j) pool.Submit(&inner, [&] { count++; });
      pool.Wait(&inner);  // helping wait from inside a worker
    });
  }
  pool.Wait(&outer);
  EXPECT_EQ(count.load(), 4 * 8);
}

TEST(ThreadPoolTest, IndependentTaskGroupsWaitSeparately) {
  ThreadPool pool(2);
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  TaskGroup slow, fast;
  pool.Submit(&slow, [opened] { opened.wait(); });
  std::atomic<int> count{0};
  for (int i = 0; i < 10; ++i) pool.Submit(&fast, [&] { count++; });
  pool.Wait(&fast);  // must not wait for the gated `slow` job
  EXPECT_EQ(count.load(), 10);
  EXPECT_EQ(slow.pending(), 1u);
  gate.set_value();
  pool.Wait(&slow);
}

TEST(ThreadPoolTest, StatsCountEveryJob) {
  ThreadPool pool(3);
  // 100 iterations on 3 workers run as min(100, 3 * 4) = 12 chunk jobs.
  pool.ParallelFor(100, [](size_t) {});
  ThreadPool::Stats stats = pool.stats();
  EXPECT_EQ(stats.jobs_run, 12u);
  EXPECT_LE(stats.steals, stats.jobs_run);
  EXPECT_EQ(stats.cancelled, 0u);
}

TEST(ThreadPoolTest, LegacyZeroThreadsCoercesToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
  std::atomic<int> count{0};
  pool.ParallelFor(10, [&](size_t) { count++; });
  EXPECT_EQ(count.load(), 10);
}

}  // namespace
}  // namespace pbc
