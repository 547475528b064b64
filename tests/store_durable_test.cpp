// Unit tests for the durable storage layer (src/store) and its
// crash-recovery invariant checkers (src/check/durable.h): the sim::Fs
// fault surface, log-frame scanning and torn-tail truncation, the
// snapshot write/validate/fallback protocol, DurableLedger round trips,
// and — per checker — a deliberately broken recovery fake that must trip
// exactly the invariant that owns its failure mode.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "check/durable.h"
#include "check/invariants.h"
#include "common/rng.h"
#include "ledger/block.h"
#include "ledger/chain.h"
#include "sim/fs.h"
#include "store/block_log.h"
#include "store/codec.h"
#include "store/codec_internal.h"
#include "store/durable_ledger.h"
#include "store/kv_store.h"
#include "store/snapshot.h"
#include "txn/transaction.h"

namespace pbc::check {
namespace {

txn::Transaction WriteTxn(txn::TxnId id, const std::string& key,
                          const std::string& value) {
  txn::Transaction t;
  t.id = id;
  t.ops.push_back(txn::Op::Write(key, value));
  return t;
}

// One block whose state depends on intra-block commit order: it writes
// the same key twice, so replaying its transactions out of order yields
// different bytes.
void AppendOrderSensitiveBlock(ledger::Chain* chain) {
  uint64_t h = chain->height();
  std::string key = "k" + std::to_string(h % 3);
  chain->Append({WriteTxn(2 * h + 1, key, "a" + std::to_string(h)),
                 WriteTxn(2 * h + 2, key, "b" + std::to_string(h))});
}

void BuildOrderSensitiveChain(ledger::Chain* chain, uint64_t blocks) {
  for (uint64_t h = 0; h < blocks; ++h) AppendOrderSensitiveBlock(chain);
}

std::vector<Violation> RunChecker(InvariantChecker* checker) {
  std::vector<Violation> out;
  checker->Check(/*now=*/123, &out);
  return out;
}

// --- sim::Fs fault surface ---------------------------------------------------

TEST(SimFsTest, CrashRevertsToLastFsync) {
  sim::Fs fs(1);
  fs.Append("n0/f", "abc");
  fs.Crash("n0/");
  std::string got;
  ASSERT_TRUE(fs.Read("n0/f", &got));
  EXPECT_EQ(got, "");  // never fsynced: the crash ate it

  fs.Append("n0/f", "abc");
  ASSERT_TRUE(fs.Fsync("n0/f"));
  fs.Append("n0/f", "def");  // past the barrier, unsynced
  fs.Crash("n0/");
  ASSERT_TRUE(fs.Read("n0/f", &got));
  EXPECT_EQ(got, "abc");
  EXPECT_EQ(fs.crashes(), 2u);
}

TEST(SimFsTest, CrashIsPrefixScoped) {
  sim::Fs fs(1);
  fs.Append("n0/f", "zero");
  fs.Append("n1/f", "one");
  fs.Fsync("n1/f");
  fs.Crash("n0/");
  std::string got;
  ASSERT_TRUE(fs.Read("n0/f", &got));
  EXPECT_EQ(got, "");
  ASSERT_TRUE(fs.Read("n1/f", &got));
  EXPECT_EQ(got, "one");
  sim::FsImage image = fs.DurableImage("n0/");
  EXPECT_EQ(image.size(), 1u);
  EXPECT_EQ(image.count("n0/f"), 1u);
}

TEST(SimFsTest, LostFlushesReportSuccessButAreCounted) {
  sim::Fs fs(1);
  fs.WriteFile("n0/f", "hello");
  fs.SetLoseFlushes("n0/", true);
  EXPECT_TRUE(fs.Fsync("n0/f"));  // the disk lies
  EXPECT_EQ(fs.fsyncs_dropped("n0/"), 1u);
  fs.Crash("n0/");
  std::string got;
  ASSERT_TRUE(fs.Read("n0/f", &got));
  EXPECT_EQ(got, "");  // durable content never advanced

  fs.SetLoseFlushes("n0/", false);
  fs.WriteFile("n0/f", "hello");
  ASSERT_TRUE(fs.Fsync("n0/f"));
  fs.Crash("n0/");
  ASSERT_TRUE(fs.Read("n0/f", &got));
  EXPECT_EQ(got, "hello");
  EXPECT_EQ(fs.fsyncs_dropped("n0/"), 1u);  // honest syncs don't count
}

TEST(SimFsTest, TornCrashChopsTheDurableTail) {
  sim::Fs fs(7);
  const std::string content(100, 'x');
  int attempts = 0;
  // The chop size is drawn from the shim's seeded Rng and may be zero on
  // a given crash; re-arm until a tear lands (deterministic per seed).
  while (fs.tears("n0/") == 0 && attempts < 200) {
    fs.WriteFile("n0/f", content);
    fs.Fsync("n0/f");
    fs.SetPendingTear("n0/", 1'000'000);
    fs.Crash("n0/");
    ++attempts;
  }
  ASSERT_GE(fs.tears("n0/"), 1u) << "no tear in " << attempts << " crashes";
  std::string got;
  ASSERT_TRUE(fs.Read("n0/f", &got));
  EXPECT_LT(got.size(), content.size());
  EXPECT_EQ(got, content.substr(0, got.size()));  // a strict prefix
  // The tear was consumed by that crash: a plain crash leaves data alone.
  fs.WriteFile("n0/f", content);
  fs.Fsync("n0/f");
  uint64_t tears_before = fs.tears("n0/");
  fs.Crash("n0/");
  EXPECT_EQ(fs.tears("n0/"), tears_before);
  ASSERT_TRUE(fs.Read("n0/f", &got));
  EXPECT_EQ(got, content);
}

TEST(SimFsTest, RenameBeforeSyncLosesContentButKeepsName) {
  sim::Fs fs(1);
  fs.WriteFile("n0/snap.tmp", "payload");
  fs.Rename("n0/snap.tmp", "n0/snap");  // journaled name, unsynced content
  fs.Crash("n0/");
  std::string got;
  ASSERT_TRUE(fs.Read("n0/snap", &got));  // the classic zero-length file
  EXPECT_EQ(got, "");
  EXPECT_FALSE(fs.Exists("n0/snap.tmp"));

  fs.WriteFile("n0/snap.tmp", "payload");
  ASSERT_TRUE(fs.Fsync("n0/snap.tmp"));  // the barrier the protocol needs
  fs.Rename("n0/snap.tmp", "n0/snap");
  fs.Crash("n0/");
  ASSERT_TRUE(fs.Read("n0/snap", &got));
  EXPECT_EQ(got, "payload");
}

// Durable content is a synced prefix of the current bytes; these pin the
// cases where the shim must copy the durable bytes out first.
TEST(SimFsTest, WriteFileOverSyncedBytesKeepsOldDurableContent) {
  sim::Fs fs(1);
  fs.WriteFile("n0/f", "old-durable");
  ASSERT_TRUE(fs.Fsync("n0/f"));
  fs.WriteFile("n0/f", "new");
  std::string got;
  ASSERT_TRUE(fs.Read("n0/f", &got));
  EXPECT_EQ(got, "new");
  EXPECT_EQ(fs.DurableImage("n0/").at("n0/f"), "old-durable");
  fs.Crash("n0/");
  ASSERT_TRUE(fs.Read("n0/f", &got));
  EXPECT_EQ(got, "old-durable");
}

TEST(SimFsTest, TruncateBelowSyncedThenCrashRestoresDurableContent) {
  sim::Fs fs(1);
  fs.Append("n0/f", "abcdef");
  ASSERT_TRUE(fs.Fsync("n0/f"));
  fs.Truncate("n0/f", 2);
  fs.Append("n0/f", "XY");  // overwrites what used to be synced bytes
  std::string got;
  ASSERT_TRUE(fs.Read("n0/f", &got));
  EXPECT_EQ(got, "abXY");
  fs.Crash("n0/");
  ASSERT_TRUE(fs.Read("n0/f", &got));
  EXPECT_EQ(got, "abcdef");

  // A truncation that stays above the synced length needs no copy and
  // still loses only unsynced bytes.
  fs.Append("n0/f", "ghi");
  fs.Truncate("n0/f", 7);
  fs.Crash("n0/");
  ASSERT_TRUE(fs.Read("n0/f", &got));
  EXPECT_EQ(got, "abcdef");
}

TEST(SimFsTest, LostFlushAfterCopyOutKeepsOldDurableContent) {
  sim::Fs fs(1);
  fs.WriteFile("n0/f", "durable");
  ASSERT_TRUE(fs.Fsync("n0/f"));
  fs.SetLoseFlushes("n0/", true);
  fs.WriteFile("n0/f", "rewritten");  // forces the copy-out
  EXPECT_TRUE(fs.Fsync("n0/f"));      // the disk lies
  fs.Append("n0/f", "-more");
  EXPECT_TRUE(fs.Fsync("n0/f"));
  EXPECT_EQ(fs.fsyncs_dropped("n0/"), 2u);
  fs.Crash("n0/");
  std::string got;
  ASSERT_TRUE(fs.Read("n0/f", &got));
  EXPECT_EQ(got, "durable");

  fs.SetLoseFlushes("n0/", false);
  fs.WriteFile("n0/f", "rewritten");
  ASSERT_TRUE(fs.Fsync("n0/f"));  // an honoured flush drops the old copy
  fs.Crash("n0/");
  ASSERT_TRUE(fs.Read("n0/f", &got));
  EXPECT_EQ(got, "rewritten");
}

TEST(SimFsTest, TearOnASyncedPrefixChopsOnlyTheDurableTail) {
  sim::Fs fs(7);
  const std::string synced(100, 'x');
  int attempts = 0;
  std::string got;
  while (fs.tears("n0/") == 0 && attempts < 200) {
    fs.WriteFile("n0/f", synced);
    fs.Fsync("n0/f");
    fs.Append("n0/f", std::string(50, 'y'));  // past the barrier
    fs.SetPendingTear("n0/", 1'000'000);
    fs.Crash("n0/");
    ASSERT_TRUE(fs.Read("n0/f", &got));
    EXPECT_EQ(got, synced.substr(0, got.size()));  // never a 'y'
    ++attempts;
  }
  ASSERT_GE(fs.tears("n0/"), 1u) << "no tear in " << attempts << " crashes";
  EXPECT_LT(got.size(), synced.size());
}

TEST(SimFsTest, RenameKeepsTheSyncedPrefix) {
  sim::Fs fs(1);
  fs.Append("n0/a", "abc");
  ASSERT_TRUE(fs.Fsync("n0/a"));
  fs.Append("n0/a", "def");
  fs.WriteFile("n0/b", "replaced");
  fs.Rename("n0/a", "n0/b");
  EXPECT_FALSE(fs.Exists("n0/a"));
  std::string got;
  ASSERT_TRUE(fs.Read("n0/b", &got));
  EXPECT_EQ(got, "abcdef");
  fs.Crash("n0/");
  ASSERT_TRUE(fs.Read("n0/b", &got));
  EXPECT_EQ(got, "abc");
}

// --- Codec -------------------------------------------------------------------

uint32_t BitwiseCrc32(const char* data, size_t len) {
  uint32_t c = 0xFFFFFFFFu;
  for (size_t i = 0; i < len; ++i) {
    c ^= static_cast<uint8_t>(data[i]);
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(CodecTest, Crc32MatchesBitwiseReference) {
  EXPECT_EQ(store::Crc32(std::string("123456789")), 0xCBF43926u);
  Rng rng(5);
  std::string buf(400, '\0');
  for (char& ch : buf) ch = static_cast<char>(rng.NextU64(256));
  for (int i = 0; i < 500; ++i) {
    size_t offset = rng.NextU64(64);
    size_t len = rng.NextU64(301);
    EXPECT_EQ(store::Crc32(buf.data() + offset, len),
              BitwiseCrc32(buf.data() + offset, len))
        << "offset " << offset << " len " << len;
  }
  EXPECT_EQ(store::Crc32(buf), BitwiseCrc32(buf.data(), buf.size()));
}

TEST(CodecTest, Crc32KernelsMatchByteForByte) {
  if (!store::internal::CpuHasPclmul()) GTEST_SKIP() << "CPU lacks PCLMULQDQ";
#if PBC_CRC32_HAVE_PCLMUL
  Rng rng(11);
  // Every length across the folding kernel's 64-byte entry point and its
  // 16-byte tail, at every alignment within a 16-byte lane.
  std::string buf(4096 + 16, '\0');
  for (char& ch : buf) ch = static_cast<char>(rng.NextU64(256));
  for (size_t offset = 0; offset < 16; ++offset) {
    for (size_t len = 0; len <= 4096; ++len) {
      ASSERT_EQ(store::internal::Crc32Pclmul(buf.data() + offset, len),
                store::internal::Crc32Portable(buf.data() + offset, len))
          << "offset " << offset << " len " << len;
    }
  }
  // One snapshot-sized image.
  std::string big(80 * 1024, '\0');
  for (char& ch : big) ch = static_cast<char>(rng.NextU64(256));
  EXPECT_EQ(store::internal::Crc32Pclmul(big.data(), big.size()),
            store::internal::Crc32Portable(big.data(), big.size()));
  EXPECT_EQ(store::internal::Crc32Pclmul(big.data(), big.size()),
            BitwiseCrc32(big.data(), big.size()));
#endif
}

// --- Block log framing + recovery -------------------------------------------

TEST(BlockLogTest, ScanAcceptsCleanChainedFrames) {
  ledger::Chain chain;
  BuildOrderSensitiveChain(&chain, 3);
  std::string data;
  for (const ledger::Block& b : chain.blocks()) {
    data += store::EncodeFrame(store::EncodeBlock(b));
  }
  store::LogScan scan = store::ScanLog(data);
  EXPECT_EQ(scan.blocks.size(), 3u);
  EXPECT_EQ(scan.valid_bytes, data.size());
  EXPECT_FALSE(scan.torn);
}

TEST(BlockLogTest, ScanStopsAtCorruptAndIncompleteFrames) {
  ledger::Chain chain;
  BuildOrderSensitiveChain(&chain, 2);
  std::string f0 = store::EncodeFrame(store::EncodeBlock(chain.at(0)));
  std::string f1 = store::EncodeFrame(store::EncodeBlock(chain.at(1)));

  std::string corrupt = f0 + f1;
  corrupt[f0.size() + 10] ^= 0x40;  // flip a byte inside frame 1
  store::LogScan scan = store::ScanLog(corrupt);
  EXPECT_EQ(scan.blocks.size(), 1u);
  EXPECT_EQ(scan.valid_bytes, f0.size());
  EXPECT_TRUE(scan.torn);

  std::string incomplete = f0 + f1.substr(0, f1.size() / 2);
  scan = store::ScanLog(incomplete);
  EXPECT_EQ(scan.blocks.size(), 1u);
  EXPECT_TRUE(scan.torn);
}

TEST(BlockLogTest, ScanRejectsFramesThatDoNotChain) {
  ledger::Chain chain;
  BuildOrderSensitiveChain(&chain, 2);
  // A valid frame of block 1 with no block 0 before it: correct CRC, but
  // it does not extend the (empty) prefix.
  std::string data = store::EncodeFrame(store::EncodeBlock(chain.at(1)));
  store::LogScan scan = store::ScanLog(data);
  EXPECT_EQ(scan.blocks.size(), 0u);
  EXPECT_TRUE(scan.torn);
}

TEST(BlockLogTest, RecoverAndTruncateCutsAtFrameBoundary) {
  sim::Fs fs(1);
  ledger::Chain chain;
  BuildOrderSensitiveChain(&chain, 2);
  store::BlockLog log(&fs, "n0/blocks.log");
  log.Append(chain.at(0));
  log.Append(chain.at(1));
  log.Sync();
  uint64_t clean_size = fs.Size("n0/blocks.log");
  fs.Append("n0/blocks.log", "torn-tail-garbage");
  fs.Fsync("n0/blocks.log");

  store::LogScan kept = log.RecoverAndTruncate(/*mutate_off_by_one=*/false);
  EXPECT_EQ(kept.blocks.size(), 2u);
  EXPECT_FALSE(kept.torn);
  EXPECT_EQ(fs.Size("n0/blocks.log"), clean_size);
}

// The --mutate-recovery canary at the unit level: a torn tail makes the
// mutated truncation cut one byte into the last *valid* frame, silently
// dropping an fsynced block.
TEST(BlockLogTest, MutatedTruncationEatsAnFsyncedBlock) {
  sim::Fs fs(1);
  ledger::Chain chain;
  BuildOrderSensitiveChain(&chain, 2);
  store::BlockLog log(&fs, "n0/blocks.log");
  log.Append(chain.at(0));
  log.Append(chain.at(1));
  log.Sync();
  fs.Append("n0/blocks.log", "torn-tail-garbage");
  fs.Fsync("n0/blocks.log");

  store::LogScan kept = log.RecoverAndTruncate(/*mutate_off_by_one=*/true);
  EXPECT_EQ(kept.blocks.size(), 1u);  // block 1 was durable — and is gone
}

TEST(BlockLogTest, MutationIsDormantWithoutATornTail) {
  sim::Fs fs(1);
  ledger::Chain chain;
  BuildOrderSensitiveChain(&chain, 2);
  store::BlockLog log(&fs, "n0/blocks.log");
  log.Append(chain.at(0));
  log.Append(chain.at(1));
  log.Sync();
  // Frame-aligned log (the common case after a plain crash): the
  // off-by-one only triggers on truncation, so nothing is lost.
  store::LogScan kept = log.RecoverAndTruncate(/*mutate_off_by_one=*/true);
  EXPECT_EQ(kept.blocks.size(), 2u);
}

// --- Snapshots ---------------------------------------------------------------

TEST(SnapshotTest, CaptureEncodeDecodeRebuildRoundTrip) {
  store::KvStore kv;
  uint64_t next_version = 1;
  for (int i = 0; i < 4; ++i) {
    std::string key = std::to_string(i % 2);
    std::string value = std::to_string(i);
    store::WriteBatch b;
    b.Put("k" + key, "v" + value);
    ASSERT_TRUE(kv.ApplyBatch(b, next_version++).ok());
  }
  store::SnapshotData snap = store::CaptureSnapshot(kv, /*height=*/3, next_version);
  std::string encoded = store::EncodeSnapshot(snap);

  store::SnapshotData decoded;
  ASSERT_TRUE(store::DecodeSnapshot(encoded, &decoded));
  EXPECT_EQ(decoded.height, 3u);
  EXPECT_EQ(decoded.next_version, next_version);
  store::KvStore rebuilt;
  store::RebuildFromSnapshot(decoded, &rebuilt);
  EXPECT_EQ(store::SerializeLatestState(rebuilt),
            store::SerializeLatestState(kv));

  encoded[encoded.size() / 2] ^= 0x01;  // any corruption fails the CRC
  EXPECT_FALSE(store::DecodeSnapshot(encoded, &decoded));
}

TEST(SnapshotTest, DeltaDropsKeysNoLongerLive) {
  store::KvStore kv;
  store::WriteBatch first;
  for (const char* k : {"a", "b", "c", "d"}) first.Put(k, std::string("v") + k);
  ASSERT_TRUE(kv.ApplyBatch(first, 1).ok());
  std::string prev;
  store::EncodeSnapshotDelta("", {"a", "b", "c", "d"}, kv, /*height=*/1,
                             /*next_version=*/2, &prev);
  ASSERT_EQ(prev, store::EncodeSnapshot(store::CaptureSnapshot(kv, 1, 2)));

  // Delete a key in the middle and the last one, rewrite one, and delete a
  // key the previous image never held.
  store::WriteBatch second;
  second.Delete("b");
  second.Delete("d");
  second.Put("c", "vc2");
  second.Delete("never");
  ASSERT_TRUE(kv.ApplyBatch(second, 2).ok());
  std::vector<store::Key> dirty = {"b", "c", "d", "never"};
  std::string out;
  store::EncodeSnapshotDelta(prev, dirty, kv, /*height=*/2,
                             /*next_version=*/3, &out);
  EXPECT_EQ(out, store::EncodeSnapshot(store::CaptureSnapshot(kv, 2, 3)));
  store::SnapshotData decoded;
  ASSERT_TRUE(store::DecodeSnapshot(out, &decoded));
  ASSERT_EQ(decoded.entries.size(), 2u);
  EXPECT_EQ(decoded.entries[0].key, "a");
  EXPECT_EQ(decoded.entries[1].key, "c");
  EXPECT_EQ(decoded.entries[1].value, "vc2");
}

TEST(SnapshotTest, WriteSnapshotPrunesToNewestTwo) {
  sim::Fs fs(1);
  store::KvStore kv;
  store::WriteBatch b;
  b.Put("k", "v");
  ASSERT_TRUE(kv.ApplyBatch(b, 1).ok());
  for (uint64_t h : {2u, 4u, 6u}) {
    store::WriteSnapshot(
        &fs, "n0", h, store::EncodeSnapshot(store::CaptureSnapshot(kv, h, 2)));
  }
  std::string manifest;
  ASSERT_TRUE(fs.Read(store::ManifestPath("n0"), &manifest));
  std::vector<uint64_t> heights;
  ASSERT_TRUE(store::DecodeManifest(manifest, &heights));
  EXPECT_EQ(heights, (std::vector<uint64_t>{6, 4}));
  EXPECT_TRUE(fs.Exists(store::SnapshotPath("n0", 6)));
  EXPECT_TRUE(fs.Exists(store::SnapshotPath("n0", 4)));
  EXPECT_FALSE(fs.Exists(store::SnapshotPath("n0", 2)));  // pruned
}

// --- DurableLedger round trips ----------------------------------------------

TEST(DurableLedgerTest, PersistThenRecoverRebuildsChainAndState) {
  sim::Fs fs(11);
  ledger::Chain chain;
  BuildOrderSensitiveChain(&chain, 4);
  store::DurableLedger::Options opts;
  opts.dir = "n0";
  store::DurableLedger ledger(&fs, opts);
  ledger.Persist(chain);
  EXPECT_EQ(ledger.durable_height(), 4u);

  // Persist append+fsyncs at the commit barrier, so a plain crash loses
  // nothing.
  fs.Crash("n0/");
  store::DurableLedger::Recovered rec = store::DurableLedger::RecoverFromImage(
      fs.DurableImage("n0/"), "n0", /*mutate_off_by_one=*/false);
  ASSERT_EQ(rec.height, 4u);
  for (uint64_t h = 0; h < 4; ++h) {
    EXPECT_TRUE(rec.blocks[h].header.Hash() == chain.at(h).header.Hash());
  }
  EXPECT_TRUE(rec.used_snapshot);  // interval 2: snapshots at 2 and 4
  EXPECT_EQ(rec.state, ReplayChainState(chain, 4));
}

TEST(DurableLedgerTest, SnapshotAndFullReplayRecoveriesConverge) {
  sim::Fs fs(11);
  ledger::Chain chain;
  BuildOrderSensitiveChain(&chain, 5);
  store::DurableLedger::Options opts;
  opts.dir = "n0";
  store::DurableLedger ledger(&fs, opts);
  ledger.Persist(chain);

  sim::FsImage image = fs.DurableImage("n0/");
  store::DurableLedger::Recovered via_snapshot =
      store::DurableLedger::RecoverFromImage(image, "n0", false,
                                             /*use_snapshot=*/true);
  store::DurableLedger::Recovered via_replay =
      store::DurableLedger::RecoverFromImage(image, "n0", false,
                                             /*use_snapshot=*/false);
  EXPECT_TRUE(via_snapshot.used_snapshot);
  EXPECT_FALSE(via_replay.used_snapshot);
  EXPECT_EQ(via_snapshot.height, via_replay.height);
  EXPECT_EQ(via_snapshot.state, via_replay.state);
  EXPECT_EQ(via_snapshot.next_version, via_replay.next_version);
}

TEST(DurableLedgerTest, CorruptNewestSnapshotFallsBackDownTheManifest) {
  sim::Fs fs(11);
  ledger::Chain chain;
  store::DurableLedger::Options opts;
  opts.dir = "n0";
  store::DurableLedger ledger(&fs, opts);
  // Persist block by block, as the harness does on each commit, so the
  // interval-2 checkpointer leaves snapshots at heights 2 *and* 4.
  for (int i = 0; i < 4; ++i) {
    AppendOrderSensitiveBlock(&chain);
    ledger.Persist(chain);
  }

  sim::FsImage image = fs.DurableImage("n0/");
  std::string& newest = image[store::SnapshotPath("n0", 4)];
  ASSERT_FALSE(newest.empty());
  newest[newest.size() / 2] ^= 0x01;  // CRC-invalid, as after a bad crash

  store::DurableLedger::Recovered rec =
      store::DurableLedger::RecoverFromImage(image, "n0", false);
  EXPECT_TRUE(rec.used_snapshot);
  EXPECT_EQ(rec.snapshot_height, 2u);  // fell back to the older snapshot
  EXPECT_EQ(rec.height, 4u);
  EXPECT_EQ(rec.state, ReplayChainState(chain, 4));

  image.erase(store::ManifestPath("n0"));  // no manifest: full log replay
  rec = store::DurableLedger::RecoverFromImage(image, "n0", false);
  EXPECT_FALSE(rec.used_snapshot);
  EXPECT_EQ(rec.height, 4u);
  EXPECT_EQ(rec.state, ReplayChainState(chain, 4));
}

TEST(DurableLedgerTest, RecoverAndResyncReportsAndRepairsMutatedLoss) {
  sim::Fs fs(11);
  ledger::Chain chain;
  BuildOrderSensitiveChain(&chain, 2);
  store::DurableLedger::Options opts;
  opts.dir = "n0";
  opts.mutate_recovery = true;
  store::DurableLedger ledger(&fs, opts);
  ledger.Persist(chain);
  fs.Append(ledger.log_path(), "torn-tail-garbage");
  fs.Fsync(ledger.log_path());

  store::DurableLedger::RecoveryReport report = ledger.RecoverAndResync(chain);
  EXPECT_EQ(report.valid_frames, 2u);      // a correct scan keeps both
  EXPECT_EQ(report.recovered_height, 1u);  // the canary dropped one
  EXPECT_EQ(report.resynced_blocks, 1u);   // re-appended from the chain
  EXPECT_EQ(ledger.durable_height(), 2u);  // the store believes it healed
  // But the re-appended frame sits after the byte the mutation mutilated,
  // so the platter really holds one recoverable block: exactly the belief
  // overclaim the synced-commit checker's belief tooth flags.
  store::DurableLedger::Recovered rec = store::DurableLedger::RecoverFromImage(
      fs.DurableImage("n0/"), "n0", false);
  EXPECT_EQ(rec.height, 1u);
}

TEST(DurableLedgerTest, HonestRecoverAndResyncRestoresTheFullLog) {
  sim::Fs fs(11);
  ledger::Chain chain;
  BuildOrderSensitiveChain(&chain, 2);
  store::DurableLedger::Options opts;
  opts.dir = "n0";
  store::DurableLedger ledger(&fs, opts);
  ledger.Persist(chain);
  fs.Append(ledger.log_path(), "torn-tail-garbage");
  fs.Fsync(ledger.log_path());

  store::DurableLedger::RecoveryReport report = ledger.RecoverAndResync(chain);
  EXPECT_EQ(report.valid_frames, 2u);
  EXPECT_EQ(report.recovered_height, 2u);  // frame-boundary truncation
  EXPECT_EQ(report.resynced_blocks, 0u);
  store::DurableLedger::Recovered rec = store::DurableLedger::RecoverFromImage(
      fs.DurableImage("n0/"), "n0", false);
  EXPECT_EQ(rec.height, 2u);
  EXPECT_EQ(rec.state, ReplayChainState(chain, 2));
}

// Snapshots are built from the previous snapshot plus the keys written
// since. Every snap-<h> file must still byte-equal the full encoding of an
// independently replayed store at height h — across snapshot intervals,
// multi-block persists, keys that land before, between and after existing
// ones, and a torn crash followed by RecoverAndResync.
TEST(DurableLedgerTest, DeltaSnapshotsByteEqualTheFullEncoding) {
  for (uint64_t interval : {1u, 2u, 3u}) {
    SCOPED_TRACE("snapshot_interval " + std::to_string(interval));
    sim::Fs fs(interval);
    Rng rng(100 + interval);
    ledger::Chain chain;
    store::DurableLedger::Options opts;
    opts.dir = "n0";
    opts.snapshot_interval = interval;
    store::DurableLedger ledger(&fs, opts);

    store::KvStore oracle;
    uint64_t next_version = 1;
    std::map<uint64_t, std::string> expected;  // height -> full encoding
    uint64_t crash_height = 0;  // snapshot files up to here may be torn
    uint64_t checked = 0;
    txn::TxnId id = 0;
    // Decimal suffixes interleave lexicographically ("k5" < "k50" < "k6"),
    // so fresh keys keep landing between, before and after old ones.
    auto key = [&] { return "k" + std::to_string(rng.NextU64(300)); };

    for (int step = 0; step < 40; ++step) {
      for (uint64_t b = 0, n = 1 + rng.NextU64(2); b < n; ++b) {
        std::vector<txn::Transaction> txns;
        for (uint64_t i = 0, m = 1 + rng.NextU64(8); i < m; ++i) {
          txn::Transaction t;
          t.id = ++id;
          switch (rng.NextU64(4)) {
            case 0:
              t.ops.push_back(txn::Op::Write(
                  key(), txn::EncodeInt(static_cast<int64_t>(rng.NextU64(9)))));
              break;
            case 1:
              t.ops.push_back(txn::Op::Increment(key(), 1 + rng.NextU64(9)));
              break;
            case 2:
              t.ops.push_back(txn::Op::Transfer(key(), key(),
                                                1 + rng.NextU64(20)));
              break;
            default:
              t.ops.push_back(txn::Op::Read(key()));  // writes nothing
          }
          txns.push_back(std::move(t));
        }
        chain.Append(std::move(txns));
        for (const txn::Transaction& t : chain.at(chain.height() - 1).txns) {
          txn::ExecResult r = txn::Execute(t, oracle);
          if (!r.writes.empty()) oracle.ApplyBatch(r.writes, next_version++);
        }
        expected[chain.height()] = store::EncodeSnapshot(
            store::CaptureSnapshot(oracle, chain.height(), next_version));
      }
      ledger.Persist(chain);

      if (step == 20) {
        fs.SetPendingTear("n0/", 1'000'000);
        fs.Crash("n0/");
        crash_height = chain.height();
        ledger.RecoverAndResync(chain);
      }
      for (const std::string& path : fs.List("n0/snap-")) {
        uint64_t h = std::stoull(path.substr(std::string("n0/snap-").size()));
        if (h <= crash_height) continue;
        std::string got;
        ASSERT_TRUE(fs.Read(path, &got));
        ASSERT_EQ(expected.count(h), 1u) << path;
        EXPECT_TRUE(got == expected[h]) << path << " differs from the oracle";
        ++checked;
      }
    }
    EXPECT_GT(checked, 10u);
    EXPECT_GT(fs.tears("n0/"), 0u);
  }
}

// --- Checker broken-fakes: each trips exactly its invariant ------------------

// Fixture state shared by the checker tests: a replica whose ledger is
// honestly persisted, so the *production* recovery is clean and any
// violation is attributable to the injected broken fake.
struct CheckerRig {
  sim::Fs fs{404};
  ledger::Chain chain;
  store::DurableLedger ledger;

  // Persist block by block (as the harness's commit listener does) so the
  // interval-2 checkpointer snapshots mid-chain and a log tail exists
  // past the newest snapshot.
  explicit CheckerRig(uint64_t blocks) : ledger(&fs, MakeOptions()) {
    for (uint64_t h = 0; h < blocks; ++h) {
      AppendOrderSensitiveBlock(&chain);
      ledger.Persist(chain);
    }
  }

  static store::DurableLedger::Options MakeOptions() {
    store::DurableLedger::Options opts;
    opts.dir = "n0";
    return opts;
  }

  std::vector<DurableTarget> Targets() {
    return {{"n0", &ledger, [this] { return &chain; }}};
  }
};

TEST(DurableCheckerTest, CleanLedgerPassesAllThreeCheckers) {
  CheckerRig rig(4);
  RecoveryEquivalenceChecker equivalence(&rig.fs, rig.Targets(),
                                         ProductionRecovery(false));
  SnapshotConvergenceChecker convergence(
      &rig.fs, rig.Targets(), ProductionRecovery(false),
      ProductionRecovery(false, /*use_snapshot=*/false));
  SyncedCommitDurabilityChecker synced(&rig.fs, rig.Targets(),
                                       ProductionRecovery(false));
  EXPECT_TRUE(RunChecker(&equivalence).empty());
  EXPECT_TRUE(RunChecker(&convergence).empty());
  EXPECT_TRUE(RunChecker(&synced).empty());
  EXPECT_EQ(convergence.snapshot_recoveries(), 1u);  // not vacuously clean
}

// A recovery that trusts a torn tail and "recovers" a block the replica
// never committed must trip recovery-equivalence (and only it).
TEST(DurableCheckerTest, TornTailResurrectionTripsRecoveryEquivalence) {
  CheckerRig rig(3);
  RecoverFn resurrect = [](const sim::FsImage& image, const std::string& dir) {
    store::DurableLedger::Recovered rec =
        store::DurableLedger::RecoverFromImage(image, dir, false);
    ledger::Block ghost = ledger::Block::Make(
        rec.height, rec.blocks.back().header.Hash(),
        {WriteTxn(99, "ghost", "g")});
    rec.blocks.push_back(ghost);
    rec.height = rec.blocks.size();
    return rec;
  };
  RecoveryEquivalenceChecker broken(&rig.fs, rig.Targets(), resurrect);
  std::vector<Violation> found = RunChecker(&broken);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0].invariant, std::string("durable-recovery-equivalence"));
  EXPECT_NE(found[0].detail.find("resurrected"), std::string::npos);
  // The sibling invariant does not own this failure: a resurrecting
  // recovery keeps every valid frame, so synced-commit stays quiet.
  SyncedCommitDurabilityChecker synced(&rig.fs, rig.Targets(), resurrect);
  EXPECT_TRUE(RunChecker(&synced).empty());
}

// A snapshot-path recovery that loads the checkpoint but skips the log
// tail replay must trip snapshot-convergence.
TEST(DurableCheckerTest, StaleSnapshotRecoveryTripsSnapshotConvergence) {
  CheckerRig rig(3);  // snapshot at 2, log prefix at 3: a tail exists
  RecoverFn stale = [](const sim::FsImage& image, const std::string& dir) {
    store::DurableLedger::Recovered rec =
        store::DurableLedger::RecoverFromImage(image, dir, false);
    // Freeze at the snapshot: drop the tail blocks and report the
    // checkpoint's state as if it were current.
    store::SnapshotData snap;
    DecodeSnapshot(image.at(store::SnapshotPath(dir, rec.snapshot_height)),
                   &snap);
    store::KvStore kv;
    RebuildFromSnapshot(snap, &kv);
    rec.height = rec.snapshot_height;
    rec.blocks.resize(rec.height);
    rec.state = store::SerializeLatestState(kv);
    rec.next_version = snap.next_version;
    return rec;
  };
  SnapshotConvergenceChecker broken(
      &rig.fs, rig.Targets(), stale,
      ProductionRecovery(false, /*use_snapshot=*/false));
  std::vector<Violation> found = RunChecker(&broken);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0].invariant, std::string("durable-snapshot-convergence"));
  EXPECT_NE(found[0].detail.find("snapshot recovery reaches height"),
            std::string::npos);
}

// A recovery that replays each block's transactions in reverse commit
// order rebuilds the right chain but the wrong bytes — the state compare
// of recovery-equivalence must catch it.
TEST(DurableCheckerTest, ReorderedIntraBlockReplayTripsRecoveryEquivalence) {
  CheckerRig rig(3);
  RecoverFn reordered = [](const sim::FsImage& image, const std::string& dir) {
    store::DurableLedger::Recovered rec =
        store::DurableLedger::RecoverFromImage(image, dir, false);
    store::KvStore kv;
    uint64_t next_version = 1;
    for (const ledger::Block& block : rec.blocks) {
      const std::vector<txn::Transaction>& txns = block.txns;
      for (auto it = txns.rbegin(); it != txns.rend(); ++it) {
        txn::ExecResult result = txn::Execute(*it, kv);
        if (!result.writes.empty()) {
          kv.ApplyBatch(result.writes, next_version++);
        }
      }
    }
    rec.state = store::SerializeLatestState(kv);
    return rec;
  };
  RecoveryEquivalenceChecker broken(&rig.fs, rig.Targets(), reordered);
  std::vector<Violation> found = RunChecker(&broken);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0].invariant, std::string("durable-recovery-equivalence"));
  EXPECT_NE(found[0].detail.find("byte-equal"), std::string::npos);
}

// A recovery that truncates past the last valid frame loses an fsynced
// commit — synced-commit's shadow-recovery tooth must catch it.
TEST(DurableCheckerTest, OverTruncatingRecoveryTripsSyncedCommit) {
  CheckerRig rig(3);
  RecoverFn over_truncate = [](const sim::FsImage& image,
                               const std::string& dir) {
    store::DurableLedger::Recovered rec =
        store::DurableLedger::RecoverFromImage(image, dir, false);
    rec.blocks.pop_back();
    rec.height = rec.blocks.size();
    return rec;
  };
  SyncedCommitDurabilityChecker broken(&rig.fs, rig.Targets(), over_truncate);
  std::vector<Violation> found = RunChecker(&broken);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0].invariant, std::string("durable-synced-commit"));
  EXPECT_NE(found[0].detail.find("would lose an fsynced commit"),
            std::string::npos);
}

// The live-recovery tooth: an observed RecoverAndResync that kept fewer
// blocks than the platter's valid frames is reported on the next Check.
TEST(DurableCheckerTest, ObserveRecoveryReportsTruncationLoss) {
  sim::Fs fs(1);
  SyncedCommitDurabilityChecker checker(&fs, {}, ProductionRecovery(false));
  store::DurableLedger::RecoveryReport report;
  report.valid_frames = 3;
  report.recovered_height = 2;
  checker.ObserveRecovery(/*replica_index=*/0, report, /*now=*/55);
  std::vector<Violation> found = RunChecker(&checker);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0].at, 55u);
  EXPECT_NE(found[0].detail.find("lost by truncation"), std::string::npos);
  EXPECT_TRUE(RunChecker(&checker).empty());  // drained once reported

  report.recovered_height = 3;  // kept everything: nothing to report
  checker.ObserveRecovery(0, report, 66);
  EXPECT_TRUE(RunChecker(&checker).empty());
}

// The shadow-recovery tooth catches the --mutate-recovery canary: on a
// durably torn tail, the mutated truncation gives back one block fewer
// than a correct scan keeps.
TEST(DurableCheckerTest, MutatedRecoveryCanaryTripsSyncedCommit) {
  CheckerRig rig(2);
  rig.fs.Append(rig.ledger.log_path(), "torn-tail-garbage");
  rig.fs.Fsync(rig.ledger.log_path());

  SyncedCommitDurabilityChecker honest(&rig.fs, rig.Targets(),
                                       ProductionRecovery(false));
  EXPECT_TRUE(RunChecker(&honest).empty());

  SyncedCommitDurabilityChecker mutated(&rig.fs, rig.Targets(),
                                        ProductionRecovery(true));
  std::vector<Violation> found = RunChecker(&mutated);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_NE(found[0].detail.find("would lose an fsynced commit"),
            std::string::npos);
}

// The belief tooth: a store claiming more durable blocks than the platter
// holds is a bug when the disk has been honest...
TEST(DurableCheckerTest, OverclaimedDurabilityTripsSyncedCommitBelief) {
  CheckerRig rig(2);
  // Shrink the durable log behind the store's back (an "honest" loss: no
  // fault counter records it). One frame survives.
  std::string first_frame =
      store::EncodeFrame(store::EncodeBlock(rig.chain.at(0)));
  rig.fs.Truncate(rig.ledger.log_path(), first_frame.size());
  rig.fs.Fsync(rig.ledger.log_path());

  SyncedCommitDurabilityChecker checker(&rig.fs, rig.Targets(),
                                        ProductionRecovery(false));
  std::vector<Violation> found = RunChecker(&checker);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_NE(found[0].detail.find("believes"), std::string::npos);
}

// ...but is excused when the Fs records that the disk lied (a dropped
// flush strands the belief above the platter through no fault of the
// store).
TEST(DurableCheckerTest, LostFlushGatesTheBeliefCheck) {
  CheckerRig rig(1);
  rig.fs.SetLoseFlushes("n0/", true);
  rig.chain.Append({WriteTxn(50, "k0", "late")});
  rig.ledger.Persist(rig.chain);  // believes 2; platter still holds 1
  ASSERT_EQ(rig.ledger.durable_height(), 2u);
  ASSERT_GE(rig.fs.fsyncs_dropped("n0/"), 1u);

  SyncedCommitDurabilityChecker synced(&rig.fs, rig.Targets(),
                                       ProductionRecovery(false));
  EXPECT_TRUE(RunChecker(&synced).empty());
  // And what *is* on the platter still recovers equivalently.
  RecoveryEquivalenceChecker equivalence(&rig.fs, rig.Targets(),
                                         ProductionRecovery(false));
  EXPECT_TRUE(RunChecker(&equivalence).empty());
}

}  // namespace
}  // namespace pbc::check
