// SHA-256 compression kernels, exposed for tests and benchmarks only.
//
// `Sha256` picks one kernel per process: the SHA-NI kernel when the CPU
// has the SHA extensions (plus SSSE3/SSE4.1), the portable one otherwise.
// Both compute the FIPS 180-4 compression function, so every digest is the
// same whichever kernel runs; the portable kernel is the reference the
// tests hold the SHA-NI one to.
#ifndef PBC_CRYPTO_SHA256_INTERNAL_H_
#define PBC_CRYPTO_SHA256_INTERNAL_H_

#include <cstddef>
#include <cstdint>

#if defined(__x86_64__) || defined(__i386__)
#define PBC_SHA256_HAVE_SHANI 1
#else
#define PBC_SHA256_HAVE_SHANI 0
#endif

namespace pbc::crypto::internal {

/// Folds `blocks` consecutive 64-byte blocks at `data` into `state`.
using Sha256CompressFn = void (*)(uint32_t state[8], const uint8_t* data,
                                  size_t blocks);

/// Plain C++ compression; runs on every host.
void Sha256CompressPortable(uint32_t state[8], const uint8_t* data,
                            size_t blocks);

#if PBC_SHA256_HAVE_SHANI
/// SHA-NI compression. Call only when `CpuHasShaNi()` is true.
void Sha256CompressShaNi(uint32_t state[8], const uint8_t* data,
                         size_t blocks);
#endif

/// True when this build has the SHA-NI kernel and the CPU can run it.
bool CpuHasShaNi();

/// The kernel `Sha256` uses, chosen on first call.
Sha256CompressFn Sha256Compress();

}  // namespace pbc::crypto::internal

#endif  // PBC_CRYPTO_SHA256_INTERNAL_H_
