// Google-benchmark microbenches for the computational substrates: GEMM,
// tensor permutation (HPTT stand-in), dense pairwise contraction,
// SVD, block-sparse contraction (Alg. 2), block tensor vector operations and
// the transport frame checksum.
// These measure real host throughput — the numbers behind the wall-clock
// columns of the figure benches.
#include <benchmark/benchmark.h>

#include <cmath>
#include <vector>

#include "common.hpp"
#include "linalg/gemm.hpp"
#include "linalg/qr.hpp"
#include "linalg/svd.hpp"
#include "dmrg/environment.hpp"
#include "models/electron.hpp"
#include "models/hubbard.hpp"
#include "models/lattice.hpp"
#include "models/spin_half.hpp"
#include "mps/mps.hpp"
#include "runtime/wire.hpp"
#include "symm/block_ops.hpp"
#include "tensor/contract.hpp"

namespace {

using tt::Rng;
using tt::index_t;

void BM_Gemm(benchmark::State& state) {
  const index_t n = state.range(0);
  Rng rng(1);
  auto a = tt::linalg::Matrix::random(n, n, rng);
  auto b = tt::linalg::Matrix::random(n, n, rng);
  tt::linalg::Matrix c(n, n);
  for (auto _ : state) {
    tt::linalg::gemm(false, false, 1.0, a, b, 0.0, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(2 * n * n * n));
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(128)->Arg(256)->Arg(512)->Unit(benchmark::kMicrosecond);

void BM_GemmTransposed(benchmark::State& state) {
  // AᵀBᵀ: the packed builtin kernel (and dgemm) absorb the transposes during
  // packing, so this should track BM_Gemm closely — it used to pay two
  // materialized transpose copies per call.
  const index_t n = state.range(0);
  Rng rng(1);
  auto a = tt::linalg::Matrix::random(n, n, rng);
  auto b = tt::linalg::Matrix::random(n, n, rng);
  tt::linalg::Matrix c(n, n);
  for (auto _ : state) {
    tt::linalg::gemm(true, true, 1.0, a, b, 0.0, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(2 * n * n * n));
}
BENCHMARK(BM_GemmTransposed)->Arg(256)->Arg(512)->Unit(benchmark::kMicrosecond);

void BM_Permute(benchmark::State& state) {
  const index_t n = state.range(0);
  Rng rng(2);
  auto t = tt::tensor::DenseTensor::random({n, n, 8, 4}, rng);
  for (auto _ : state) {
    auto p = t.permuted({3, 1, 0, 2});
    benchmark::DoNotOptimize(p.data());
  }
  state.SetBytesProcessed(state.iterations() * t.size() *
                          static_cast<int64_t>(sizeof(double)) * 2);
}
BENCHMARK(BM_Permute)->Arg(64)->Arg(128)->Unit(benchmark::kMicrosecond);

void BM_DenseContract(benchmark::State& state) {
  const index_t m = state.range(0);
  Rng rng(3);
  // Environment-style contraction L(a,k,b)·x(b,s,t,c).
  auto l = tt::tensor::DenseTensor::random({m, 16, m}, rng);
  auto x = tt::tensor::DenseTensor::random({m, 2, 2, m}, rng);
  for (auto _ : state) {
    auto y = tt::tensor::contract(l, x, {{2, 0}});  // y(a,k,s,t,c)
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_DenseContract)->Arg(32)->Arg(64)->Arg(128)->Unit(benchmark::kMicrosecond);

// range(1) == 0: a random 2n×n matrix. range(1) == 1: a square n×n one whose
// singular values fall over twelve decades, like the near-square groups the
// DMRG truncation factors (150 is about the largest at m = 256).
void BM_Svd(benchmark::State& state) {
  const index_t n = state.range(0);
  Rng rng(5);
  auto a = tt::linalg::Matrix::random(2 * n, n, rng);
  if (state.range(1) == 1) {
    auto q = tt::linalg::qr(tt::linalg::Matrix::random(n, n, rng)).q;
    const auto w = tt::linalg::qr(tt::linalg::Matrix::random(n, n, rng)).q;
    for (index_t i = 0; i < n; ++i)
      for (index_t j = 0; j < n; ++j) q(i, j) *= std::pow(10.0, -12.0 * j / (n - 1));
    a = tt::linalg::matmul(false, true, q, w);
  }
  for (auto _ : state) {
    auto f = tt::linalg::svd(a);
    benchmark::DoNotOptimize(f.s.data());
  }
}
BENCHMARK(BM_Svd)
    ->ArgNames({"n", "graded"})
    ->Args({32, 0})->Args({64, 0})->Args({128, 0})->Args({150, 1})->Args({512, 1})
    ->Unit(benchmark::kMillisecond);

// The middle bond of a 16-site chain, so every argument contracts at its
// own bond dimension (2^8 = 256 states on each side of the bond).
void BM_BlockContract(benchmark::State& state) {
  const index_t m = state.range(0);
  Rng rng(6);
  auto sites = tt::models::spin_half_sites(16);
  auto psi = tt::mps::Mps::random(sites, tt::symm::QN(0), m, rng);
  const auto& a = psi.site(7);
  const auto& b = psi.site(8);
  for (auto _ : state) {
    auto c = tt::symm::contract(a, b, {{2, 0}});
    benchmark::DoNotOptimize(c.num_blocks());
  }
}
BENCHMARK(BM_BlockContract)->Arg(32)->Arg(64)->Arg(128)->Unit(benchmark::kMicrosecond);

void BM_BlockContractElectron(benchmark::State& state) {
  const index_t m = state.range(0);
  Rng rng(7);
  auto sites = tt::models::electron_sites(10);
  auto psi = tt::mps::Mps::random(sites, tt::symm::QN(10, 0), m, rng);
  const auto& a = psi.site(4);
  const auto& b = psi.site(5);
  for (auto _ : state) {
    auto c = tt::symm::contract(a, b, {{2, 0}});
    benchmark::DoNotOptimize(c.num_blocks());
  }
}
BENCHMARK(BM_BlockContractElectron)->Arg(16)->Arg(32)->Arg(64)
    ->Unit(benchmark::kMicrosecond);

// The two-site matvec's t1 × W step, t1(bra, mpo, s1, s2, r) · W(k, s, s', k')
// over (mpo, k), (s1, s'), at the middle bond of the 4×3 triangular Hubbard
// cylinder. Both operands need a permuted copy in every block pair, and the
// two U(1) charges make the blocks small: the per-pair overhead regime.
void BM_BlockContractPermuted(benchmark::State& state) {
  const index_t m = state.range(0);
  Rng rng(9);
  const auto lat = tt::models::triangular_cylinder(4, 3);
  auto sites = tt::models::electron_sites(lat.num_sites);
  const auto h = tt::models::hubbard_mpo(sites, lat, 1.0, 8.5);
  auto psi = tt::mps::Mps::random(sites, tt::symm::QN(lat.num_sites, 0), m, rng);
  tt::dmrg::ContractionEngine eng;
  const int j = lat.num_sites / 2 - 1;
  auto left = tt::dmrg::left_boundary(2);
  for (int i = 0; i < j; ++i)
    left = tt::dmrg::extend_left(eng, left, psi.site(i), h.site(i));
  const auto x = tt::symm::contract(psi.site(j), psi.site(j + 1), {{2, 0}});
  const auto t1 = tt::symm::contract(left, x, {{2, 0}});
  for (auto _ : state) {
    auto c = tt::symm::contract(t1, h.site(j), {{1, 0}, {2, 2}});
    benchmark::DoNotOptimize(c.num_blocks());
  }
}
BENCHMARK(BM_BlockContractPermuted)->Arg(64)->Arg(128)->Arg(256)
    ->Unit(benchmark::kMicrosecond);

// Davidson's vector work on one two-site θ (the middle bond of the 4×3
// triangular Hubbard cylinder): a copy, scale, axpy, dot and norm2, each a
// pass over every block of θ.
void BM_BlockTensorVectorOps(benchmark::State& state) {
  const index_t m = state.range(0);
  Rng rng(9);
  const auto lat = tt::models::triangular_cylinder(4, 3);
  auto sites = tt::models::electron_sites(lat.num_sites);
  auto psi = tt::mps::Mps::random(sites, tt::symm::QN(lat.num_sites, 0), m, rng);
  const int j = lat.num_sites / 2 - 1;
  const auto theta = tt::symm::contract(psi.site(j), psi.site(j + 1), {{2, 0}});
  auto other = theta;
  other.scale(0.5);
  for (auto _ : state) {
    auto x = theta;
    x.scale(0.75);
    x.axpy(-0.25, other);
    benchmark::DoNotOptimize(tt::symm::dot(x, other) + x.norm2());
  }
  state.SetItemsProcessed(state.iterations() * theta.num_elements());
}
BENCHMARK(BM_BlockTensorVectorOps)->Arg(128)->Unit(benchmark::kMicrosecond);

// The transport frame checksum, which both ends run over every payload byte.
// 64 MiB is well past the last-level cache, so it reads from memory.
void BM_WireChecksum(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(8);
  std::vector<std::byte> buf(n);
  for (auto& b : buf)
    b = static_cast<std::byte>(static_cast<unsigned char>(rng.integer(0, 255)));
  for (auto _ : state) benchmark::DoNotOptimize(tt::rt::wire_checksum(buf.data(), n));
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_WireChecksum)->Arg(4 << 10)->Arg(1 << 20)->Arg(64 << 20)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

namespace {

// Explicit main (instead of benchmark_main) so the driver banner names the
// linalg kernel set next to the numbers it produced.
int run(int argc, char** argv) {
  tt::bench::print_driver_header("bench_kernels");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const tt::Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
