#include "store/block_log.h"

#include "store/codec.h"

namespace pbc::store {

std::string EncodeFrame(const std::string& payload) {
  std::string out;
  PutU32(&out, static_cast<uint32_t>(payload.size()));
  PutU32(&out, Crc32(payload));
  out.append(payload);
  return out;
}

LogScan ScanLog(const std::string& data) {
  LogScan scan;
  Decoder dec{&data};
  while (dec.remaining() >= 8) {
    uint32_t len = 0;
    uint32_t crc = 0;
    dec.GetU32(&len);
    dec.GetU32(&crc);
    if (dec.remaining() < len) break;  // incomplete trailing frame
    if (Crc32(data.data() + dec.pos, len) != crc) break;  // torn or corrupt
    std::string payload(data, dec.pos, len);
    ledger::Block block;
    if (!DecodeBlock(payload, &block)) break;
    // Chain linkage: a frame that decodes but does not extend the prefix
    // is treated as torn — recovery never resurrects out-of-order blocks.
    if (block.header.height != scan.blocks.size()) break;
    if (!scan.blocks.empty() &&
        block.header.prev_hash != scan.blocks.back().header.Hash()) {
      break;
    }
    dec.pos += len;
    scan.blocks.push_back(std::move(block));
    scan.valid_bytes = dec.pos;
  }
  scan.torn = scan.valid_bytes < data.size();
  return scan;
}

void BlockLog::Append(const ledger::Block& block) {
  fs_->Append(path_, EncodeFrame(EncodeBlock(block)));
}

void BlockLog::Sync() { fs_->Fsync(path_); }

LogScan BlockLog::RecoverAndTruncate(bool mutate_off_by_one,
                                     uint64_t* valid_frames) {
  std::string data;
  fs_->Read(path_, &data);
  const uint64_t size = data.size();
  LogScan scan = ScanLog(data);
  if (valid_frames != nullptr) *valid_frames = scan.blocks.size();
  uint64_t cut = scan.valid_bytes;
  if (mutate_off_by_one && scan.torn && cut > 0) {
    cut -= 1;  // canary bug: eats the last byte of the last valid frame
    data.resize(cut);
    scan = ScanLog(data);
  } else {
    scan.torn = false;  // the kept bytes end exactly at the valid prefix
  }
  if (cut < size) {
    fs_->Truncate(path_, cut);
    fs_->Fsync(path_);
  }
  return scan;
}

}  // namespace pbc::store
