// Ablations for the design choices the paper calls out in the text:
//   (a) Davidson subspace size (§II.C: size 2 suffices mid-sweep because each
//       local problem starts from an excellent guess; preconditioning is
//       skipped for the same reason),
//   (b) MPO compression (§VI.B: SVD compression reduces the Hubbard MPO to
//       k = 26; flops scale with k),
//   (c) SVD truncation cutoff (§VI: 1e-9 for smaller m, 1e-12 / 0 for the
//       largest),
//   (d) the list engine's sensitivity to per-block overhead (cost-model knob
//       behind the list-vs-sparse crossover on the two machines).
#include <cmath>
#include <iostream>

#include "common.hpp"

namespace {

int run() {
  tt::bench::print_driver_header("bench_ablations");
  using namespace tt;

  // (a) Davidson subspace ----------------------------------------------------
  {
    auto lat = models::chain(12);
    auto sites = models::spin_half_sites(12);
    auto h = models::heisenberg_mpo(sites, lat, 1.0);
    std::vector<int> neel;
    for (int i = 0; i < 12; ++i) neel.push_back(i % 2);

    Table t("Ablation (a) — Davidson subspace size, Heisenberg chain N=12, m=32");
    t.header({"subspace", "matvecs/opt", "E after 1 sweep", "E after 3 sweeps"});
    for (int sub : {2, 4, 8}) {
      dmrg::Dmrg solver(mps::Mps::product_state(sites, neel), h,
                        std::make_unique<dmrg::ContractionEngine>());
      dmrg::SweepParams p;
      p.max_m = 32;
      p.davidson_subspace = sub;
      p.davidson_iter = sub;
      const double e1 = solver.sweep(p).energy;
      solver.sweep(p);
      const double e3 = solver.sweep(p).energy;
      t.row({std::to_string(sub), std::to_string(sub), fmt(e1, 9), fmt(e3, 9)});
    }
    t.print();
    std::cout << "Claim: bigger subspaces barely improve converged energy but\n"
                 "cost proportionally more matvecs per optimization.\n\n";
  }

  // (b) MPO compression -------------------------------------------------------
  {
    Table t("Ablation (b) — MPO compression (rel. SVD cutoff 1e-13)");
    t.header({"system", "k exact FSM", "k compressed", "matvec flops ratio"});
    auto spins = bench::Workload::spins(4, 3);
    auto electrons = bench::Workload::electrons(3, 2);
    struct Case {
      const char* name;
      mps::Mpo exact, comp;
      mps::SiteSetPtr sites;
      symm::QN sector;
    };
    Case cases[2] = {
        {"spins", models::heisenberg_mpo(spins.sites, spins.lat, 1.0, 0.5, 0.0),
         spins.h, spins.sites, spins.sector},
        {"electrons", models::hubbard_mpo(electrons.sites, electrons.lat, 1.0, 8.5, 0.0),
         electrons.h, electrons.sites, electrons.sector}};
    for (auto& c : cases) {
      // Matvec flops at fixed m scale with the MPO bond dimension.
      Rng rng(5);
      auto psi = mps::Mps::random(c.sites, c.sector, 24, rng);
      auto flops_with = [&](const mps::Mpo& mpo) {
        dmrg::ContractionEngine eng;
        dmrg::EnvGraph envs(eng, psi, mpo);
        const int j = psi.size() / 2;
        auto theta = symm::contract(psi.site(j), psi.site(j + 1), {{2, 0}});
        eng.set_logging(true);
        dmrg::apply_two_site(eng, envs.left(j), mpo.site(j), mpo.site(j + 1),
                             envs.right(j + 2), theta);
        const rt::Cluster local{rt::localhost(), 1, 1};
        return dmrg::price(dmrg::EngineKind::kReference, eng.log(), local).flops();
      };
      const double ratio = flops_with(c.exact) / flops_with(c.comp);
      t.row({c.name, fmt_int(c.exact.max_bond_dim()), fmt_int(c.comp.max_bond_dim()),
             fmt(ratio, 2)});
    }
    t.print();
    std::cout << "Claim: compression shrinks k substantially (paper: k = 26 for\n"
                 "the XC6 Hubbard MPO) and the matvec cost follows.\n\n";
  }

  // (c) SVD truncation cutoff --------------------------------------------------
  {
    auto lat = models::chain(10);
    auto sites = models::spin_half_sites(10);
    auto h = models::heisenberg_mpo(sites, lat, 1.0);
    std::vector<int> neel;
    for (int i = 0; i < 10; ++i) neel.push_back(i % 2);

    Table t("Ablation (c) — SVD cutoff, Heisenberg chain N=10, m cap 64");
    t.header({"cutoff", "final E", "max m used", "max trunc err"});
    for (double cutoff : {1e-6, 1e-9, 1e-12, 0.0}) {
      dmrg::Dmrg solver(mps::Mps::product_state(sites, neel), h,
                        std::make_unique<dmrg::ContractionEngine>());
      dmrg::SweepParams p;
      p.max_m = 64;
      p.cutoff = cutoff;
      p.davidson_iter = 3;
      double max_err = 0.0;
      for (int s = 0; s < 4; ++s)
        max_err = std::max(max_err, solver.sweep(p).truncation_error);
      t.row({fmt_sci(cutoff, 0), fmt(solver.last_energy(), 10),
             fmt_int(solver.psi().max_bond_dim()), fmt_sci(max_err, 1)});
    }
    t.print();
    std::cout << "Claim: looser cutoffs keep smaller bonds at an energy penalty;\n"
                 "1e-12 (the paper's production cutoff) is effectively exact.\n\n";
  }

  // (d) list-engine block overhead sensitivity ---------------------------------
  {
    auto electrons = bench::Workload::electrons();
    const index_t m = bench::electron_ms().back();
    const auto k = bench::measure_step(electrons, m);

    Table t("Ablation (d) — per-block overhead vs list/sparse-sparse crossover "
            "(electrons, m=" + fmt_int(m) + ", 4 BW nodes)");
    t.header({"block overhead (us)", "list sim s", "sparse-sparse sim s", "winner"});
    for (double ovh : {0.0, 50.0, 120.0, 400.0, 1000.0}) {
      rt::Cluster cl = bench::cluster(rt::blue_waters(), 4, 16);
      cl.machine.block_overhead_us = ovh;
      const double tl = bench::sim_seconds(k, dmrg::EngineKind::kList, cl);
      const double ts = bench::sim_seconds(k, dmrg::EngineKind::kSparseSparse, cl);
      t.row({fmt(ovh, 0), fmt_sci(tl, 2), fmt_sci(ts, 2),
             tl < ts ? "list" : "sparse-sparse"});
    }
    t.print();
    std::cout << "Claim: the per-block mapping overhead (the \"CTF mapping\"\n"
                 "serial cost) controls where the list algorithm loses to the\n"
                 "fused sparse format on many-small-block workloads.\n";
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
