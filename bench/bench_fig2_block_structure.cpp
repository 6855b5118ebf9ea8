// Paper Fig 2: (a) number of blocks and largest-block size of a
// representative MPS tensor vs bond dimension; (b) sparsity (fill fraction)
// of the fused single tensor vs bond dimension — for both benchmark systems.
//
// The paper reports largest-block scaling ~ m^0.94 (spins) and m^0.97
// (electrons), many more blocks for electrons (two conserved charges), and
// fused fill fractions below ~0.3. States are grown with real DMRG sweeps.
#include <cmath>
#include <iostream>

#include "common.hpp"

namespace {

struct Point {
  tt::index_t m;
  int blocks;
  tt::index_t largest;
  double fill;
};

// Grow by DMRG and measure the middle MPS tensor at each bond-dimension stage.
std::vector<Point> profile(const tt::bench::Workload& w,
                           const std::vector<tt::index_t>& ms,
                           const std::vector<int>& start) {
  using namespace tt;
  dmrg::Dmrg solver(mps::Mps::product_state(w.sites, start), w.h,
                    std::make_unique<dmrg::ContractionEngine>());
  std::vector<Point> out;
  for (index_t m : ms) {
    dmrg::SweepParams p;
    p.max_m = m;
    p.davidson_iter = 2;
    solver.sweep(p);
    solver.sweep(p);
    const int mid = solver.psi().size() / 2;
    const symm::BlockTensor& t = solver.psi().site(mid);
    Point pt;
    pt.m = t.index(2).dim();
    pt.blocks = t.num_blocks();
    pt.largest = 0;
    const symm::Index& bond = t.index(2);
    for (int s = 0; s < bond.num_sectors(); ++s)
      pt.largest = std::max(pt.largest, bond.sector(s).dim);
    pt.fill = t.fill_fraction();
    out.push_back(pt);
  }
  return out;
}

// Least-squares slope of log(largest) vs log(m).
double fit_exponent(const std::vector<Point>& pts) {
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  int n = 0;
  for (const auto& p : pts) {
    if (p.m < 2 || p.largest < 1) continue;
    const double x = std::log(static_cast<double>(p.m));
    const double y = std::log(static_cast<double>(p.largest));
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
    ++n;
  }
  if (n < 2) return 0.0;
  return (n * sxy - sx * sy) / (n * sxx - sx * sx);
}

int run() {
  tt::bench::print_driver_header("bench_fig2_block_structure");
  using namespace tt;
  auto spins = bench::Workload::spins();
  auto electrons = bench::Workload::electrons();

  std::vector<int> neel;
  for (int x = 0; x < spins.lat.length; ++x)
    for (int y = 0; y < spins.lat.circumference; ++y) neel.push_back((x + y) % 2);
  std::vector<int> filling;
  for (int i = 0; i < electrons.lat.num_sites; ++i)
    filling.push_back(i % 2 == 0 ? 1 : 2);

  auto sp = profile(spins, bench::spin_ms(), neel);
  auto el = profile(electrons, bench::electron_ms(), filling);

  Table t("Fig 2a/2b — MPS block structure vs bond dimension (DMRG-grown)");
  t.header({"system", "m (actual)", "# blocks", "largest block", "fill fraction"});
  for (const auto& p : sp)
    t.row({"spins", fmt_int(p.m), std::to_string(p.blocks), fmt_int(p.largest),
           fmt(p.fill, 3)});
  for (const auto& p : el)
    t.row({"electrons", fmt_int(p.m), std::to_string(p.blocks), fmt_int(p.largest),
           fmt(p.fill, 3)});
  t.print();

  Table f("Fig 2a — largest-block scaling exponent (paper: 0.94 / 0.97)");
  f.header({"system", "fit largest ~ m^alpha"});
  f.row({"spins", fmt(fit_exponent(sp), 2)});
  f.row({"electrons", fmt(fit_exponent(el), 2)});
  f.print();

  // Shape checks mirrored in docs/BENCHMARKS.md: electrons have more blocks and
  // lower fill than spins at comparable m.
  if (!sp.empty() && !el.empty()) {
    std::cout << "\nShape check: electrons blocks (" << el.back().blocks
              << ") > spins blocks (" << sp.back().blocks << "): "
              << (el.back().blocks > sp.back().blocks ? "yes" : "NO") << "\n";
    std::cout << "Shape check: electrons fill (" << fmt(el.back().fill, 3)
              << ") < spins fill (" << fmt(sp.back().fill, 3)
              << "): " << (el.back().fill < sp.back().fill ? "yes" : "NO") << "\n";
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
