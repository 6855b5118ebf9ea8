// Paper Fig 4: lattice structure of the two benchmark systems —
// (a) the J1–J2 square cylinder, (b) the triangular cylinder.
// Rendered as site-id grids plus bond statistics.
#include <iostream>

#include "common.hpp"

namespace {

int run() {
  tt::bench::print_driver_header("bench_fig4_lattices");
  using namespace tt;

  std::cout << "(a) J1-J2 square cylinder (paper: 20x10; bench default 6x4)\n";
  auto spins = models::square_cylinder(6, 4, true);
  std::cout << models::render(spins) << "\n";

  std::cout << "(b) triangular cylinder (paper: 6x6 XC6; bench default 4x3)\n";
  auto electrons = models::triangular_cylinder(4, 3);
  std::cout << models::render(electrons) << "\n";

  Table t("Fig 4 — bond statistics");
  t.header({"lattice", "sites", "J1/t bonds", "J2 bonds", "coordination (bulk)"});
  t.row({spins.name, std::to_string(spins.num_sites),
         std::to_string(spins.num_bonds(0)), std::to_string(spins.num_bonds(1)),
         "4 + 4 diag"});
  t.row({electrons.name, std::to_string(electrons.num_sites),
         std::to_string(electrons.num_bonds(0)), "0", "6"});
  t.print();

  std::cout << "\nThe paper-scale geometries are available too:\n";
  std::cout << "  " << models::square_cylinder(20, 10, true).name << ": "
            << models::square_cylinder(20, 10, true).num_sites << " sites\n";
  std::cout << "  " << models::triangular_cylinder(6, 6).name << ": "
            << models::triangular_cylinder(6, 6).num_sites << " sites\n";
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
