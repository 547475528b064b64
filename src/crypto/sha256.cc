#include "crypto/sha256.h"

#include <algorithm>
#include <cstring>

#include "crypto/sha256_internal.h"

#if PBC_SHA256_HAVE_SHANI
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace pbc::crypto {

namespace {

constexpr uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline uint32_t Rotr(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

}  // namespace

bool Hash256::IsZero() const {
  for (uint8_t b : bytes) {
    if (b != 0) return false;
  }
  return true;
}

std::string Hash256::ToHex() const {
  return HexEncode(bytes.data(), bytes.size());
}

std::string Hash256::ToShortHex() const { return ToHex().substr(0, 8); }

uint64_t Hash256::ToU64() const {
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | bytes[i];
  return v;
}

Sha256::Sha256()
    : state_{0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
             0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19} {}

namespace internal {

void Sha256CompressPortable(uint32_t state[8], const uint8_t* data,
                            size_t blocks) {
  for (; blocks > 0; --blocks, data += 64) {
    uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<uint32_t>(data[i * 4]) << 24) |
             (static_cast<uint32_t>(data[i * 4 + 1]) << 16) |
             (static_cast<uint32_t>(data[i * 4 + 2]) << 8) |
             static_cast<uint32_t>(data[i * 4 + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      uint32_t s0 =
          Rotr(w[i - 15], 7) ^ Rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      uint32_t s1 =
          Rotr(w[i - 2], 17) ^ Rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

    for (int i = 0; i < 64; ++i) {
      uint32_t s1 = Rotr(e, 6) ^ Rotr(e, 11) ^ Rotr(e, 25);
      uint32_t ch = (e & f) ^ (~e & g);
      uint32_t t1 = h + s1 + ch + kK[i] + w[i];
      uint32_t s0 = Rotr(a, 2) ^ Rotr(a, 13) ^ Rotr(a, 22);
      uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      uint32_t t2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

#if PBC_SHA256_HAVE_SHANI

// Intel SHA extensions: SHA256RNDS2 runs two rounds on the state split as
// ABEF / CDGH; SHA256MSG1/MSG2 extend the message schedule four words at
// a time. Compiled for this one function, so the rest of the build keeps
// its baseline ISA.
__attribute__((target("sha,sse4.1"))) void Sha256CompressShaNi(
    uint32_t state[8], const uint8_t* data, size_t blocks) {
  const __m128i kByteSwap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);

  // DCBA / HGFE in memory order -> ABEF / CDGH lanes.
  __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  __m128i hgfe = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  __m128i cdab = _mm_shuffle_epi32(dcba, 0xB1);
  __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

  for (; blocks > 0; --blocks, data += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    // msg[j % 4] holds schedule words W[4j .. 4j+3].
    __m128i msg[4];
    for (int j = 0; j < 4; ++j) {
      msg[j] = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * j)),
          kByteSwap);
    }
#pragma GCC unroll 16
    for (int r = 0; r < 16; ++r) {
      __m128i wk = _mm_add_epi32(
          msg[r & 3], _mm_loadu_si128(reinterpret_cast<const __m128i*>(
                          &kK[4 * r])));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
      if (r < 12) {
        // W[4(r+4) ..] from W[4r ..], W[4(r+1) ..], W[4(r+2)+1 ..] and
        // W[4(r+3) ..]; the slot of W[4r ..] is free once this round used it.
        __m128i t = _mm_sha256msg1_epu32(msg[r & 3], msg[(r + 1) & 3]);
        t = _mm_add_epi32(
            t, _mm_alignr_epi8(msg[(r + 3) & 3], msg[(r + 2) & 3], 4));
        msg[r & 3] = _mm_sha256msg2_epu32(t, msg[(r + 3) & 3]);
      }
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  dcba = _mm_blend_epi16(feba, dchg, 0xF0);
  hgfe = _mm_alignr_epi8(dchg, feba, 8);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), dcba);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), hgfe);
}

bool CpuHasShaNi() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  const bool ssse3 = (ecx & bit_SSSE3) != 0;
  const bool sse41 = (ecx & bit_SSE4_1) != 0;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
  const bool sha = (ebx & (1u << 29)) != 0;
  return ssse3 && sse41 && sha;
}

#else

bool CpuHasShaNi() { return false; }

#endif  // PBC_SHA256_HAVE_SHANI

Sha256CompressFn Sha256Compress() {
#if PBC_SHA256_HAVE_SHANI
  static const Sha256CompressFn kernel =
      CpuHasShaNi() ? Sha256CompressShaNi : Sha256CompressPortable;
  return kernel;
#else
  return Sha256CompressPortable;
#endif
}

}  // namespace internal

void Sha256::Update(const uint8_t* data, size_t len) {
  if (len == 0) return;
  total_len_ += len;
  const internal::Sha256CompressFn compress = internal::Sha256Compress();
  if (buffer_len_ > 0) {
    size_t take = std::min(len, 64 - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, data, take);
    buffer_len_ += take;
    data += take;
    len -= take;
    if (buffer_len_ < 64) return;
    compress(state_.data(), buffer_.data(), 1);
    buffer_len_ = 0;
  }
  // Whole blocks go straight from the input; only the tail is buffered.
  size_t blocks = len / 64;
  if (blocks > 0) {
    compress(state_.data(), data, blocks);
    data += blocks * 64;
    len -= blocks * 64;
  }
  if (len > 0) {
    std::memcpy(buffer_.data(), data, len);
    buffer_len_ = len;
  }
}

void Sha256::UpdateU64(uint64_t v) {
  uint8_t b[8];
  for (int i = 0; i < 8; ++i) b[i] = (v >> (8 * i)) & 0xff;
  Update(b, 8);
}

Hash256 Sha256::Finalize() {
  const internal::Sha256CompressFn compress = internal::Sha256Compress();
  uint64_t bit_len = total_len_ * 8;
  // Pad in place: 0x80, zeros up to byte 56 (spilling into a second block
  // when the tail has no room for the length), then the big-endian length.
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > 56) {
    std::memset(buffer_.data() + buffer_len_, 0, 64 - buffer_len_);
    compress(state_.data(), buffer_.data(), 1);
    buffer_len_ = 0;
  }
  std::memset(buffer_.data() + buffer_len_, 0, 56 - buffer_len_);
  for (int i = 0; i < 8; ++i) {
    buffer_[56 + i] = (bit_len >> (8 * (7 - i))) & 0xff;
  }
  compress(state_.data(), buffer_.data(), 1);
  buffer_len_ = 0;

  Hash256 out;
  for (int i = 0; i < 8; ++i) {
    out.bytes[i * 4] = (state_[i] >> 24) & 0xff;
    out.bytes[i * 4 + 1] = (state_[i] >> 16) & 0xff;
    out.bytes[i * 4 + 2] = (state_[i] >> 8) & 0xff;
    out.bytes[i * 4 + 3] = state_[i] & 0xff;
  }
  return out;
}

Hash256 Sha256::Digest(const Bytes& data) {
  Sha256 h;
  h.Update(data);
  return h.Finalize();
}

Hash256 Sha256::Digest(const std::string& data) {
  Sha256 h;
  h.Update(data);
  return h.Finalize();
}

HmacSha256Key::HmacSha256Key(const Bytes& key) {
  uint8_t block[64] = {};
  if (key.size() > 64) {
    Hash256 kh = Sha256::Digest(key);
    std::memcpy(block, kh.bytes.data(), kh.bytes.size());
  } else if (!key.empty()) {
    std::memcpy(block, key.data(), key.size());
  }
  uint8_t pad[64];
  for (int i = 0; i < 64; ++i) pad[i] = block[i] ^ 0x36;
  inner_.Update(pad, 64);
  for (int i = 0; i < 64; ++i) pad[i] = block[i] ^ 0x5c;
  outer_.Update(pad, 64);
}

Hash256 HmacSha256Key::Mac(const uint8_t* message, size_t len) const {
  Sha256 inner = inner_;
  inner.Update(message, len);
  Hash256 inner_digest = inner.Finalize();
  Sha256 outer = outer_;
  outer.Update(inner_digest);
  return outer.Finalize();
}

Hash256 HmacSha256(const Bytes& key, const Bytes& message) {
  return HmacSha256Key(key).Mac(message);
}

}  // namespace pbc::crypto
