// CRC-32 kernels, exposed for tests and benchmarks only.
//
// `Crc32` picks one kernel per process: the PCLMULQDQ folding kernel when
// the CPU has carry-less multiply (plus SSE4.1), slicing-by-8 otherwise.
// Both compute the same IEEE 802.3 CRC, so every frame checksum is the
// same whichever kernel runs; slicing-by-8 is the reference the tests
// hold the folding kernel to.
#ifndef PBC_STORE_CODEC_INTERNAL_H_
#define PBC_STORE_CODEC_INTERNAL_H_

#include <cstddef>
#include <cstdint>

#if defined(__x86_64__) || defined(__i386__)
#define PBC_CRC32_HAVE_PCLMUL 1
#else
#define PBC_CRC32_HAVE_PCLMUL 0
#endif

namespace pbc::store::internal {

/// CRC-32 of `len` bytes at `data`.
using Crc32Fn = uint32_t (*)(const char* data, size_t len);

/// Table-driven slicing-by-8; runs on every host.
uint32_t Crc32Portable(const char* data, size_t len);

#if PBC_CRC32_HAVE_PCLMUL
/// Folds 64-byte blocks with PCLMULQDQ and finishes the tail with
/// slicing-by-8. Call only when `CpuHasPclmul()` is true.
uint32_t Crc32Pclmul(const char* data, size_t len);
#endif

/// True when this build has the PCLMULQDQ kernel and the CPU can run it.
bool CpuHasPclmul();

/// The kernel `Crc32` uses, chosen on first call.
Crc32Fn Crc32Kernel();

}  // namespace pbc::store::internal

#endif  // PBC_STORE_CODEC_INTERNAL_H_
