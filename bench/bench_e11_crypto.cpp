// E11 — crypto substrate microbenchmarks supporting the E5/E7 overhead
// claims: hashing, Merkle trees, authenticators, commitments, Σ-protocol
// proofs, range proofs, confidential transfers.
#include <benchmark/benchmark.h>

#include <string>

#include "bench/bench_util.h"
#include "crypto/auth.h"
#include "crypto/group.h"
#include "crypto/merkle.h"
#include "crypto/sha256.h"
#include "obs/report.h"
#include "verify/zkp.h"

namespace {

using namespace pbc;
using namespace pbc::crypto;
using bench::SampleAndEmit;

constexpr uint64_t kSeed = 0;  // fixed inputs; generators use local seeds

void BM_Sha256(benchmark::State& state) {
  size_t size = static_cast<size_t>(state.range(0));
  Bytes data(size, 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::Digest(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * size));

  SampleAndEmit("sha256/bytes=" + std::to_string(size), 5000,
                [&](size_t) { benchmark::DoNotOptimize(Sha256::Digest(data)); });
}

void BM_HmacSha256(benchmark::State& state) {
  Bytes key(32, 0x11);
  Bytes msg(static_cast<size_t>(state.range(0)), 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(HmacSha256(key, msg));
  }
  state.SetBytesProcessed(
      static_cast<int64_t>(state.iterations() * msg.size()));

  SampleAndEmit("hmac_sha256/bytes=" + std::to_string(msg.size()), 5000,
                [&](size_t) { benchmark::DoNotOptimize(HmacSha256(key, msg)); });
}

void BM_HmacSha256Key(benchmark::State& state) {
  HmacSha256Key key(Bytes(32, 0x11));
  Bytes msg(static_cast<size_t>(state.range(0)), 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(key.Mac(msg));
  }
  state.SetBytesProcessed(
      static_cast<int64_t>(state.iterations() * msg.size()));

  SampleAndEmit("hmac_sha256_key/bytes=" + std::to_string(msg.size()), 5000,
                [&](size_t) { benchmark::DoNotOptimize(key.Mac(msg)); });
}

void BM_MerkleBuild(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  std::vector<Hash256> leaves;
  for (size_t i = 0; i < n; ++i) {
    leaves.push_back(Sha256::Digest("leaf" + std::to_string(i)));
  }
  for (auto _ : state) {
    MerkleTree tree(leaves);
    benchmark::DoNotOptimize(tree.root());
  }
  state.counters["leaves_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * n),
      benchmark::Counter::kIsRate);

  SampleAndEmit("merkle_build/leaves=" + std::to_string(n), 200,
                [&](size_t) {
                  MerkleTree tree(leaves);
                  benchmark::DoNotOptimize(tree.root());
                });
}

void BM_MerkleProveVerify(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  std::vector<Hash256> leaves;
  for (size_t i = 0; i < n; ++i) {
    leaves.push_back(Sha256::Digest("leaf" + std::to_string(i)));
  }
  MerkleTree tree(leaves);
  size_t i = 0;
  for (auto _ : state) {
    auto proof = tree.Prove(i % n).ValueOrDie();
    benchmark::DoNotOptimize(
        MerkleTree::Verify(tree.root(), leaves[i % n], proof));
    ++i;
  }

  SampleAndEmit("merkle_prove_verify/leaves=" + std::to_string(n), 2000,
                [&](size_t j) {
                  auto proof = tree.Prove(j % n).ValueOrDie();
                  benchmark::DoNotOptimize(
                      MerkleTree::Verify(tree.root(), leaves[j % n], proof));
                });
}

void BM_SignVerify(benchmark::State& state) {
  KeyRegistry registry;
  PrivateKey key = registry.Register(1);
  Bytes msg(256, 0xcd);
  for (auto _ : state) {
    Signature sig = key.Sign(msg);
    benchmark::DoNotOptimize(registry.Verify(msg, sig));
  }

  SampleAndEmit("sign_verify", 5000, [&](size_t) {
    Signature sig = key.Sign(msg);
    benchmark::DoNotOptimize(registry.Verify(msg, sig));
  });
}

void BM_PedersenCommit(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        PedersenCommit(Scalar(12345), Scalar::Random(&rng)));
  }

  SampleAndEmit("pedersen_commit", 2000, [&](size_t) {
    benchmark::DoNotOptimize(
        PedersenCommit(Scalar(12345), Scalar::Random(&rng)));
  });
}

void BM_OpeningProve(benchmark::State& state) {
  Rng rng(1);
  Scalar m(7), r = Scalar::Random(&rng);
  auto c = PedersenCommit(m, r);
  for (auto _ : state) {
    benchmark::DoNotOptimize(verify::ProveOpening(c, m, r, &rng));
  }

  SampleAndEmit("opening_prove", 2000, [&](size_t) {
    benchmark::DoNotOptimize(verify::ProveOpening(c, m, r, &rng));
  });
}

void BM_OpeningVerify(benchmark::State& state) {
  Rng rng(1);
  Scalar m(7), r = Scalar::Random(&rng);
  auto c = PedersenCommit(m, r);
  auto proof = verify::ProveOpening(c, m, r, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(verify::VerifyOpening(c, proof));
  }

  SampleAndEmit("opening_verify", 2000, [&](size_t) {
    benchmark::DoNotOptimize(verify::VerifyOpening(c, proof));
  });
}

void BM_RangeProve(benchmark::State& state) {
  uint32_t bits = static_cast<uint32_t>(state.range(0));
  Rng rng(1);
  Scalar r = Scalar::Random(&rng);
  auto c = PedersenCommit(Scalar(3), r);
  for (auto _ : state) {
    benchmark::DoNotOptimize(verify::ProveRange(c, 3, r, bits, &rng));
  }

  SampleAndEmit("range_prove/bits=" + std::to_string(bits), 100,
                [&](size_t) {
                  benchmark::DoNotOptimize(
                      verify::ProveRange(c, 3, r, bits, &rng));
                });
}

void BM_RangeVerify(benchmark::State& state) {
  uint32_t bits = static_cast<uint32_t>(state.range(0));
  Rng rng(1);
  Scalar r = Scalar::Random(&rng);
  auto c = PedersenCommit(Scalar(3), r);
  auto proof = verify::ProveRange(c, 3, r, bits, &rng).ValueOrDie();
  for (auto _ : state) {
    benchmark::DoNotOptimize(verify::VerifyRange(c, proof));
  }

  SampleAndEmit("range_verify/bits=" + std::to_string(bits), 100,
                [&](size_t) {
                  benchmark::DoNotOptimize(verify::VerifyRange(c, proof));
                });
}

void BM_TransferVerify(benchmark::State& state) {
  Rng rng(1);
  verify::Note input{100, Scalar::Random(&rng), rng.NextU64()};
  verify::Note pay, change;
  auto t = verify::MakeTransfer(input, 30, 16, &rng, &pay, &change)
               .ValueOrDie();
  for (auto _ : state) {
    benchmark::DoNotOptimize(verify::VerifyTransfer(t));
  }

  SampleAndEmit("transfer_verify", 100, [&](size_t) {
    benchmark::DoNotOptimize(verify::VerifyTransfer(t));
  });
}

BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(65536);
BENCHMARK(BM_HmacSha256)->Arg(64)->Arg(1024);
BENCHMARK(BM_HmacSha256Key)->Arg(32)->Arg(64)->Arg(1024);
BENCHMARK(BM_MerkleBuild)->Arg(16)->Arg(256)->Arg(4096);
BENCHMARK(BM_MerkleProveVerify)->Arg(256)->Arg(4096);
BENCHMARK(BM_SignVerify);
BENCHMARK(BM_PedersenCommit);
BENCHMARK(BM_OpeningProve);
BENCHMARK(BM_OpeningVerify);
BENCHMARK(BM_RangeProve)->Arg(8)->Arg(16)->Arg(32);
BENCHMARK(BM_RangeVerify)->Arg(8)->Arg(16)->Arg(32);
BENCHMARK(BM_TransferVerify);

}  // namespace

namespace {
pbc::obs::Json E11Config() {
  auto c = pbc::obs::Json::Object();
  c.Set("note", "crypto substrate microbenchmarks");
  return c;
}
}  // namespace

PBC_BENCH_MAIN("e11_crypto", kSeed, E11Config());
