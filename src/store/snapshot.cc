#include "store/snapshot.h"

#include <algorithm>
#include <map>
#include <string_view>

#include "store/block_log.h"
#include "store/codec.h"

namespace pbc::store {

SnapshotData CaptureSnapshot(const KvStore& kv, uint64_t height,
                             uint64_t next_version) {
  SnapshotData snap;
  snap.height = height;
  snap.next_version = next_version;
  snap.last_committed = kv.last_committed();
  kv.ForEachLatest([&](const Key& key, const VersionedValue& vv) {
    snap.entries.push_back({key, vv.value, vv.version});
  });
  return snap;
}

std::string EncodeSnapshot(const SnapshotData& snap) {
  std::string payload;
  PutU64(&payload, snap.height);
  PutU64(&payload, snap.next_version);
  PutU64(&payload, snap.last_committed);
  PutU64(&payload, snap.entries.size());
  for (const SnapshotData::Entry& e : snap.entries) {
    PutString(&payload, e.key);
    PutString(&payload, e.value);
    PutU64(&payload, e.version);
  }
  return EncodeFrame(payload);
}

namespace {

// Snapshot file layout: frame header [u32 len][u32 crc], then the payload
// fields height, next_version, last_committed and entry count (u64 each),
// then the entries [u32 klen][key][u32 vlen][value][u64 version].
constexpr size_t kFrameHeaderBytes = 8;
constexpr size_t kEntriesStart = kFrameHeaderBytes + 4 * 8;

// Reads the little-endian u32 at `at`, in place. `prev` is the writer's
// own earlier output, so its length fields are in bounds.
uint32_t U32At(const std::string& bytes, size_t at) {
  const auto* p = reinterpret_cast<const unsigned char*>(bytes.data() + at);
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

// Overwrites `width` bytes at `at` with `v`, little-endian.
void StoreLe(std::string* out, size_t at, uint64_t v, int width) {
  for (int i = 0; i < width; ++i) {
    (*out)[at + i] = static_cast<char>((v >> (8 * i)) & 0xFFu);
  }
}

}  // namespace

void EncodeSnapshotDelta(const std::string& prev,
                         const std::vector<Key>& dirty, const KvStore& kv,
                         uint64_t height, uint64_t next_version,
                         std::string* out) {
  out->assign(kEntriesStart, '\0');  // header and fields, patched below
  uint64_t count = 0;
  auto encode = [&](const Key& key) {
    const VersionedValue* vv = kv.Latest(key);
    if (vv == nullptr) return;  // deleted since `prev`: the entry goes away
    PutString(out, key);
    PutString(out, vv->value);
    PutU64(out, vv->version);
    ++count;
  };

  // Both `prev`'s entries and `dirty` are in key order: merge them. Clean
  // entries accumulate into a verbatim run [run, pos) of `prev`, flushed
  // whenever a dirty key has to be emitted in between.
  auto dirty_it = dirty.begin();
  size_t pos = prev.empty() ? 0 : kEntriesStart;
  size_t run = pos;
  while (pos < prev.size()) {
    uint32_t klen = U32At(prev, pos);
    std::string_view key(prev.data() + pos + 4, klen);
    size_t next = pos + 4 + klen;
    next += 4 + U32At(prev, next) + 8;
    bool replaced = false;
    for (; dirty_it != dirty.end() && !replaced; ++dirty_it) {
      int cmp = std::string_view(*dirty_it).compare(key);
      if (cmp > 0) break;
      out->append(prev, run, pos - run);
      run = pos;
      encode(*dirty_it);
      replaced = cmp == 0;
    }
    if (replaced) {
      run = next;
    } else {
      ++count;
    }
    pos = next;
  }
  out->append(prev, run, pos - run);
  for (; dirty_it != dirty.end(); ++dirty_it) encode(*dirty_it);

  StoreLe(out, kFrameHeaderBytes, height, 8);
  StoreLe(out, kFrameHeaderBytes + 8, next_version, 8);
  StoreLe(out, kFrameHeaderBytes + 16, kv.last_committed(), 8);
  StoreLe(out, kFrameHeaderBytes + 24, count, 8);
  size_t len = out->size() - kFrameHeaderBytes;
  StoreLe(out, 0, len, 4);
  StoreLe(out, 4, Crc32(out->data() + kFrameHeaderBytes, len), 4);
}

bool DecodeSnapshot(const std::string& file_content, SnapshotData* out) {
  Decoder frame{&file_content};
  uint32_t len = 0;
  uint32_t crc = 0;
  if (!frame.GetU32(&len) || !frame.GetU32(&crc)) return false;
  if (frame.remaining() != len) return false;
  std::string payload(file_content, frame.pos, len);
  if (Crc32(payload) != crc) return false;

  Decoder dec{&payload};
  SnapshotData snap;
  uint64_t count = 0;
  if (!dec.GetU64(&snap.height) || !dec.GetU64(&snap.next_version) ||
      !dec.GetU64(&snap.last_committed) || !dec.GetU64(&count)) {
    return false;
  }
  snap.entries.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    SnapshotData::Entry e;
    if (!dec.GetString(&e.key) || !dec.GetString(&e.value) ||
        !dec.GetU64(&e.version)) {
      return false;
    }
    snap.entries.push_back(std::move(e));
  }
  if (dec.remaining() != 0) return false;
  *out = std::move(snap);
  return true;
}

void RebuildFromSnapshot(const SnapshotData& snap, KvStore* kv) {
  // ApplyBatch requires strictly increasing versions, so group the latest
  // entries by the version that wrote them and replay groups in order.
  std::map<uint64_t, WriteBatch> by_version;
  for (const SnapshotData::Entry& e : snap.entries) {
    by_version[e.version].Put(e.key, e.value);
  }
  for (auto& [version, batch] : by_version) {
    kv->ApplyBatch(batch, version);
  }
}

std::string EncodeManifest(const std::vector<uint64_t>& heights) {
  std::string payload;
  PutU64(&payload, heights.size());
  for (uint64_t h : heights) PutU64(&payload, h);
  return EncodeFrame(payload);
}

bool DecodeManifest(const std::string& file_content,
                    std::vector<uint64_t>* heights) {
  Decoder frame{&file_content};
  uint32_t len = 0;
  uint32_t crc = 0;
  if (!frame.GetU32(&len) || !frame.GetU32(&crc)) return false;
  if (frame.remaining() != len) return false;
  std::string payload(file_content, frame.pos, len);
  if (Crc32(payload) != crc) return false;

  Decoder dec{&payload};
  uint64_t count = 0;
  if (!dec.GetU64(&count)) return false;
  heights->clear();
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t h = 0;
    if (!dec.GetU64(&h)) return false;
    heights->push_back(h);
  }
  return dec.remaining() == 0;
}

std::string SnapshotPath(const std::string& dir, uint64_t height) {
  return dir + "/snap-" + std::to_string(height);
}

std::string ManifestPath(const std::string& dir) { return dir + "/MANIFEST"; }

void WriteSnapshot(sim::Fs* fs, const std::string& dir, uint64_t height,
                   std::string file_content) {
  const std::string final_path = SnapshotPath(dir, height);
  const std::string tmp_path = final_path + ".tmp";
  fs->WriteFile(tmp_path, std::move(file_content));
  fs->Fsync(tmp_path);  // the barrier that defeats the rename hazard
  fs->Rename(tmp_path, final_path);

  std::vector<uint64_t> heights;
  std::string manifest_content;
  if (fs->Read(ManifestPath(dir), &manifest_content)) {
    DecodeManifest(manifest_content, &heights);  // corrupt -> start fresh
  }
  heights.erase(std::remove(heights.begin(), heights.end(), height),
                heights.end());
  heights.insert(heights.begin(), height);
  while (heights.size() > 2) {
    fs->Remove(SnapshotPath(dir, heights.back()));
    heights.pop_back();
  }
  const std::string manifest_tmp = ManifestPath(dir) + ".tmp";
  fs->WriteFile(manifest_tmp, EncodeManifest(heights));
  fs->Fsync(manifest_tmp);
  fs->Rename(manifest_tmp, ManifestPath(dir));
}

}  // namespace pbc::store
