#include "store/codec.h"

#include <array>

#include "store/codec_internal.h"

#if PBC_CRC32_HAVE_PCLMUL
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace pbc::store {

namespace internal {

namespace {

// Slicing-by-8 tables: kCrc[0] is the classic byte-at-a-time table, and
// kCrc[k][b] is the CRC contribution of byte b followed by k zero bytes,
// so eight input bytes fold into the register with eight lookups.
using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

CrcTables MakeCrcTables() {
  CrcTables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    for (size_t k = 1; k < 8; ++k) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

// Folds `len` bytes at `p` into the (pre-inverted) CRC register `c`.
uint32_t SliceBy8(uint32_t c, const unsigned char* p, size_t len) {
  static const CrcTables kCrc = MakeCrcTables();
  for (; len >= 8; p += 8, len -= 8) {
    uint32_t lo = c ^ LoadLe32(p);
    uint32_t hi = LoadLe32(p + 4);
    c = kCrc[7][lo & 0xFFu] ^ kCrc[6][(lo >> 8) & 0xFFu] ^
        kCrc[5][(lo >> 16) & 0xFFu] ^ kCrc[4][lo >> 24] ^
        kCrc[3][hi & 0xFFu] ^ kCrc[2][(hi >> 8) & 0xFFu] ^
        kCrc[1][(hi >> 16) & 0xFFu] ^ kCrc[0][hi >> 24];
  }
  for (; len > 0; ++p, --len) {
    c = kCrc[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  }
  return c;
}

#if PBC_CRC32_HAVE_PCLMUL

__attribute__((target("pclmul,sse4.1"))) __m128i Load128(
    const unsigned char* at) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(at));
}

// x * (k_hi * x^64 + k_lo), split across x's two halves, plus `next`.
__attribute__((target("pclmul,sse4.1"))) __m128i Fold128(__m128i x,
                                                         __m128i k,
                                                         __m128i next) {
  __m128i lo = _mm_clmulepi64_si128(x, k, 0x00);
  __m128i hi = _mm_clmulepi64_si128(x, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(hi, lo), next);
}

// Carry-less-multiply folding (Gopal et al., "Fast CRC Computation for
// Generic Polynomials Using PCLMULQDQ", Intel 2009) in the bit-reflected
// domain of the IEEE polynomial. Four 128-bit lanes absorb 64 bytes per
// step: each lane is multiplied by x^(512±32) mod P and xored with the
// next 64 bytes. The lanes then fold into one (x^(128±32) mod P), that
// one absorbs any further 16-byte blocks, shrinks to 64 bits, and a
// Barrett reduction yields the 32-bit register. `len` is a multiple of 16
// and at least 64; `c` is the pre-inverted register, as in SliceBy8.
// Compiled for these functions only, so the rest of the build keeps its
// baseline ISA.
__attribute__((target("pclmul,sse4.1"))) uint32_t FoldPclmul(
    uint32_t c, const unsigned char* p, size_t len) {
  // k1 = x^(4*128+32) mod P, k2 = x^(4*128-32) mod P; k3/k4 the same for
  // one 128-bit lane; k5 = x^64 mod P; mu = floor(x^64 / P) and P itself
  // (both bit-reflected, 33 bits) drive the Barrett step.
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly_mu = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

  __m128i x1 =
      _mm_xor_si128(Load128(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x2 = Load128(p + 16);
  __m128i x3 = Load128(p + 32);
  __m128i x4 = Load128(p + 48);
  p += 64;
  len -= 64;
  for (; len >= 64; p += 64, len -= 64) {
    x1 = Fold128(x1, k1k2, Load128(p));
    x2 = Fold128(x2, k1k2, Load128(p + 16));
    x3 = Fold128(x3, k1k2, Load128(p + 32));
    x4 = Fold128(x4, k1k2, Load128(p + 48));
  }
  x1 = Fold128(x1, k3k4, x2);
  x1 = Fold128(x1, k3k4, x3);
  x1 = Fold128(x1, k3k4, x4);
  for (; len >= 16; p += 16, len -= 16) x1 = Fold128(x1, k3k4, Load128(p));

  // 128 -> 64 bits: the low half times k4 lands on the high half, then the
  // low 32 bits of that times k5 land on the remaining 64.
  __m128i t = _mm_clmulepi64_si128(x1, k3k4, 0x10);
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), t);
  t = _mm_srli_si128(x1, 4);
  x1 = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0x00);
  x1 = _mm_xor_si128(x1, t);

  // Barrett: T1 = (R mod x^32) * mu, T2 = (T1 mod x^32) * P, R ^ T2.
  t = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly_mu, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly_mu, 0x00);
  x1 = _mm_xor_si128(x1, t);
  return static_cast<uint32_t>(_mm_extract_epi32(x1, 1));
}

#endif  // PBC_CRC32_HAVE_PCLMUL

}  // namespace

uint32_t Crc32Portable(const char* data, size_t len) {
  return SliceBy8(0xFFFFFFFFu, reinterpret_cast<const unsigned char*>(data),
                  len) ^
         0xFFFFFFFFu;
}

#if PBC_CRC32_HAVE_PCLMUL

uint32_t Crc32Pclmul(const char* data, size_t len) {
  const auto* p = reinterpret_cast<const unsigned char*>(data);
  uint32_t c = 0xFFFFFFFFu;
  if (len >= 64) {
    const size_t folded = len & ~size_t{15};
    c = FoldPclmul(c, p, folded);
    p += folded;
    len -= folded;
  }
  return SliceBy8(c, p, len) ^ 0xFFFFFFFFu;
}

bool CpuHasPclmul() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  return (ecx & bit_PCLMUL) != 0 && (ecx & bit_SSE4_1) != 0;
}

#else

bool CpuHasPclmul() { return false; }

#endif  // PBC_CRC32_HAVE_PCLMUL

Crc32Fn Crc32Kernel() {
#if PBC_CRC32_HAVE_PCLMUL
  static const Crc32Fn kernel = CpuHasPclmul() ? Crc32Pclmul : Crc32Portable;
  return kernel;
#else
  return Crc32Portable;
#endif
}

}  // namespace internal

uint32_t Crc32(const char* data, size_t len) {
  return internal::Crc32Kernel()(data, len);
}

uint32_t Crc32(const std::string& bytes) {
  return Crc32(bytes.data(), bytes.size());
}

std::string EncodeBlock(const ledger::Block& block) {
  std::string out;
  block.header.EncodeTo(&out);
  PutU32(&out, static_cast<uint32_t>(block.txns.size()));
  for (const txn::Transaction& t : block.txns) txn::EncodeTxn(t, &out);
  return out;
}

bool DecodeBlock(const std::string& payload, ledger::Block* out) {
  Decoder dec{&payload};
  ledger::Block block;
  uint32_t txn_count = 0;
  if (!block.header.DecodeFrom(&dec) || !dec.GetU32(&txn_count)) {
    return false;
  }
  std::vector<txn::Transaction> txns;
  for (uint32_t i = 0; i < txn_count; ++i) {
    txn::Transaction t;
    if (!txn::DecodeTxn(&dec, &t)) return false;
    txns.push_back(std::move(t));
  }
  if (dec.remaining() != 0) return false;
  block.txns = std::move(txns);
  if (!block.VerifyTxnRoot()) return false;
  *out = std::move(block);
  return true;
}

std::string SerializeLatestState(const KvStore& kv) {
  std::string entries;
  uint64_t count = 0;
  kv.ForEachLatest([&](const Key& key, const VersionedValue& vv) {
    PutString(&entries, key);
    PutString(&entries, vv.value);
    PutU64(&entries, vv.version);
    ++count;
  });
  std::string out;
  PutU64(&out, count);
  out += entries;
  PutU64(&out, kv.last_committed());
  return out;
}

}  // namespace pbc::store
