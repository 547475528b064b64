#include "sim/fs.h"

#include <algorithm>

namespace pbc::sim {

namespace {

bool HasPrefix(const std::string& s, const std::string& prefix) {
  return s.compare(0, prefix.size(), prefix) == 0;
}

}  // namespace

void Fs::Append(const std::string& path, const std::string& bytes) {
  files_[path].current += bytes;
}

void Fs::WriteFile(const std::string& path, std::string bytes) {
  File& file = files_[path];
  if (file.synced > 0) file.Detach();
  file.current = std::move(bytes);
}

bool Fs::Read(const std::string& path, std::string* out) const {
  auto it = files_.find(path);
  if (it == files_.end()) return false;
  *out = it->second.current;
  return true;
}

bool Fs::Exists(const std::string& path) const {
  return files_.count(path) > 0;
}

uint64_t Fs::Size(const std::string& path) const {
  auto it = files_.find(path);
  return it == files_.end() ? 0 : it->second.current.size();
}

void Fs::Truncate(const std::string& path, uint64_t new_size) {
  auto it = files_.find(path);
  if (it == files_.end()) return;
  File& file = it->second;
  if (new_size < file.current.size()) {
    if (new_size < file.synced) file.Detach();
    file.current.resize(new_size);
  }
}

bool Fs::LosingFlushes(const std::string& path) const {
  for (const auto& [prefix, lose] : lose_flushes_) {
    if (lose && HasPrefix(path, prefix)) return true;
  }
  return false;
}

bool Fs::Fsync(const std::string& path) {
  auto it = files_.find(path);
  if (it == files_.end()) return false;
  if (LosingFlushes(path)) {
    // The disk acknowledges the flush but drops it; callers cannot tell.
    for (const auto& [prefix, lose] : lose_flushes_) {
      if (lose && HasPrefix(path, prefix)) {
        ++dropped_[prefix];
        break;
      }
    }
    return true;
  }
  File& file = it->second;
  file.synced = file.current.size();
  file.detached.reset();
  return true;
}

void Fs::Rename(const std::string& from, const std::string& to) {
  auto node = files_.extract(from);
  if (node.empty()) return;
  files_.erase(to);
  node.key() = to;
  files_.insert(std::move(node));
}

void Fs::Remove(const std::string& path) { files_.erase(path); }

std::vector<std::string> Fs::List(const std::string& prefix) const {
  std::vector<std::string> out;
  for (const auto& [path, file] : files_) {
    if (HasPrefix(path, prefix)) out.push_back(path);
  }
  return out;
}

void Fs::SetPendingTear(const std::string& prefix, uint64_t tear_ppm) {
  if (tear_ppm == 0) {
    pending_tear_.erase(prefix);
  } else {
    pending_tear_[prefix] = tear_ppm;
  }
}

void Fs::SetLoseFlushes(const std::string& prefix, bool lose) {
  if (lose) {
    lose_flushes_[prefix] = true;
  } else {
    lose_flushes_.erase(prefix);
  }
}

void Fs::Crash(const std::string& prefix) {
  ++crashes_;
  uint64_t tear_ppm = 0;
  auto tear = pending_tear_.find(prefix);
  if (tear != pending_tear_.end()) {
    tear_ppm = tear->second;
    pending_tear_.erase(tear);  // a tear is consumed by the crash it tears
  }
  // files_ is an ordered map, so the tear draws happen in sorted path
  // order — the crash outcome is a pure function of the shim's seed.
  for (auto& [path, file] : files_) {
    if (!HasPrefix(path, prefix)) continue;
    uint64_t durable = file.durable_size();
    if (tear_ppm > 0 && durable > 0) {
      // Torn sector write: the drive's cache acknowledged the flush but
      // lost power mid-destage, so the tail of the *durable* content —
      // at most tear_ppm millionths of the last 4 KiB — never reached
      // the platter.
      uint64_t window = std::min<uint64_t>(durable, 4096);
      uint64_t chop = rng_.NextU64(window * tear_ppm / 1'000'000 + 1);
      if (chop > 0) {
        durable -= chop;
        ++tears_[prefix];
      }
    }
    if (file.detached) {
      file.current = std::move(*file.detached);
      file.detached.reset();
    }
    file.current.resize(durable);
    file.synced = durable;
  }
}

FsImage Fs::DurableImage(const std::string& prefix) const {
  FsImage image;
  for (const auto& [path, file] : files_) {
    if (HasPrefix(path, prefix)) image[path] = file.durable();
  }
  return image;
}

uint64_t Fs::fsyncs_dropped(const std::string& prefix) const {
  auto it = dropped_.find(prefix);
  return it == dropped_.end() ? 0 : it->second;
}

uint64_t Fs::tears(const std::string& prefix) const {
  auto it = tears_.find(prefix);
  return it == tears_.end() ? 0 : it->second;
}

}  // namespace pbc::sim
