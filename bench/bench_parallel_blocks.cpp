// Thread-parallel block-contraction executor: wall-time scaling of
// symm::contract over TT_THREADS on a many-block workload (the paper's core
// claim — §IV, Alg. 2 — is that independent block pairs must execute in
// parallel). The executor bins block pairs by output block, so speedup comes
// from concurrency across bins while results stay bitwise identical; the
// table verifies that and reports the speedup over the serial path.
//
// Thread counts default to {1, 2, 4, 8} capped by TT_BENCH_MAX_THREADS (a
// whole number >= 1; anything else is an error). The driver exits 1 when any
// row's result is not bitwise equal to the serial one.
#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <thread>
#include <vector>

#include "common.hpp"
#include "support/error.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"
#include "support/timer.hpp"
#include "symm/block_ops.hpp"

namespace {

using tt::Rng;
using tt::index_t;
using tt::symm::BlockTensor;
using tt::symm::ContractStats;
using tt::symm::Dir;
using tt::symm::Index;
using tt::symm::QN;

// A bond with `nsec` sectors of dimension ~dim, so one contraction yields a
// long block-pair list with moderate per-pair GEMMs — the regime where the
// serial loop leaves the machine idle.
Index bond(Dir d, int nsec, index_t dim) {
  std::vector<tt::symm::Sector> secs;
  for (int q = 0; q < nsec; ++q)
    secs.push_back({QN(q - nsec / 2), dim + q % 3});
  return Index(secs, d);
}

Index phys(Dir d) { return Index({{QN(-1), 2}, {QN(1), 2}}, d); }

bool bitwise_equal(const BlockTensor& x, const BlockTensor& y) {
  if (x.num_blocks() != y.num_blocks()) return false;
  for (const auto& [key, blk] : x.blocks()) {
    const tt::tensor::DenseTensor* other = y.find_block(key);
    if (!other || blk.shape() != other->shape()) return false;
    if (std::memcmp(blk.data(), other->data(),
                    static_cast<std::size_t>(blk.size()) * sizeof(double)) != 0)
      return false;
  }
  return true;
}

// The TT_BENCH_MAX_THREADS cap, parsed as strictly as TT_THREADS; 0 = unset.
int max_threads_cap() {
  const char* env = std::getenv("TT_BENCH_MAX_THREADS");
  if (env == nullptr || *env == '\0') return 0;
  const char* end = env + std::strlen(env);
  int cap = 0;
  const auto [ptr, ec] = std::from_chars(env, end, cap);
  TT_CHECK(ec == std::errc() && ptr == end && cap >= 1,
           "TT_BENCH_MAX_THREADS must be a whole number >= 1, got '" << env << "'");
  return cap;
}

int run() {
  tt::bench::print_driver_header("bench_parallel_blocks");
  using namespace tt;
  const int cap = max_threads_cap();

  const int nsec = 13;
  const index_t dim = 48;
  Rng rng(7);
  const Index mid = bond(Dir::Out, nsec, dim);
  const BlockTensor a = BlockTensor::random(
      {bond(Dir::In, nsec, dim), phys(Dir::In), mid}, QN::zero(1), rng);
  const BlockTensor b = BlockTensor::random(
      {mid.reversed(), phys(Dir::In), bond(Dir::Out, nsec, dim)}, QN::zero(1),
      rng);

  ContractStats probe;
  const BlockTensor ref = symm::contract(a, b, {{2, 0}}, &probe, /*num_threads=*/1);
  std::size_t pairs = 0;
  const auto plan = symm::make_contract_plan(a, b, {{2, 0}});
  for (const auto& bin : symm::enumerate_bins(a, b, plan)) pairs += bin.pairs.size();
  std::cout << "workload: " << a.num_blocks() << " x " << b.num_blocks()
            << " operand blocks, " << pairs << " block pairs into " << probe.num_bins
            << " output bins, "
            << probe.total_flops / 1e9 << " GFlop\n\n";

  std::vector<int> thread_counts{1, 2, 4, 8};
  if (cap > 0)
    thread_counts.erase(std::remove_if(thread_counts.begin(), thread_counts.end(),
                                       [cap](int t) { return t > cap; }),
                        thread_counts.end());

  const int reps = 5;
  double t1 = 0.0;
  bool all_equal = true;
  Table table("Parallel block-contraction executor — symm::contract wall time");
  table.header({"threads", "best of 5 (ms)", "speedup vs 1", "GFlop/s",
                "bitwise == serial"});
  for (int threads : thread_counts) {
    BlockTensor c;
    double best = 1e300;
    for (int r = 0; r < reps; ++r) {
      Timer timer;
      c = symm::contract(a, b, {{2, 0}}, nullptr, threads);
      best = std::min(best, timer.seconds());
    }
    if (threads == 1) t1 = best;
    const bool equal = bitwise_equal(ref, c);
    all_equal &= equal;
    table.row({std::to_string(threads), fmt(best * 1e3, 3), fmt(t1 / best, 2),
               fmt(probe.total_flops / best / 1e9, 2), equal ? "yes" : "NO"});
  }
  table.print();

  std::cout << "\nHardware concurrency: " << std::thread::hardware_concurrency()
            << " (speedup saturates at the physical core count; the "
               "determinism column must read 'yes' everywhere at any count)\n";
  if (!all_equal) {
    std::cerr << "bench_parallel_blocks: a threaded result differs from the serial one\n";
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    tt::Cli(argc, argv).allow_only({});
    return run();
  } catch (const tt::Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
