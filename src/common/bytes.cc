#include "common/bytes.h"

namespace pbc {

Bytes ToBytes(const std::string& s) { return Bytes(s.begin(), s.end()); }

std::string ToString(const Bytes& b) { return std::string(b.begin(), b.end()); }

std::string HexEncode(const uint8_t* data, size_t len) {
  static const char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(len * 2);
  for (size_t i = 0; i < len; ++i) {
    out.push_back(kHex[data[i] >> 4]);
    out.push_back(kHex[data[i] & 0xf]);
  }
  return out;
}

std::string HexEncode(const Bytes& b) { return HexEncode(b.data(), b.size()); }

bool Decoder::GetString(std::string* s) {
  uint32_t len = 0;
  if (!GetU32(&len)) return false;
  if (remaining() < len) return false;
  s->assign(*data, pos, len);
  pos += len;
  return true;
}

}  // namespace pbc
