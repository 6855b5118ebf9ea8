#include "mps/io.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace tt::mps {

namespace {

using symm::BlockTensor;
using symm::Dir;
using symm::Index;
using symm::QN;

void write_qn(std::ostream& os, const QN& q) {
  os << q.rank();
  for (int c = 0; c < q.rank(); ++c) os << " " << q[c];
}

QN read_qn(std::istream& is) {
  int rank = 0;
  is >> rank;
  TT_CHECK(is && rank >= 0 && rank <= QN::kMaxRank, "corrupt QN rank");
  if (rank == 0) return QN::zero(0);
  int q0 = 0, q1 = 0;
  is >> q0;
  TT_CHECK(is, "truncated stream inside QN charges");
  if (rank == 1) return QN(q0);
  is >> q1;
  TT_CHECK(is, "truncated stream inside QN charges");
  return QN(q0, q1);
}

void write_index(std::ostream& os, const Index& idx) {
  os << (idx.dir() == Dir::In ? "I" : "O") << " " << idx.num_sectors();
  for (const auto& s : idx.sectors()) {
    os << " ";
    write_qn(os, s.qn);
    os << " " << s.dim;
  }
  os << "\n";
}

Index read_index(std::istream& is) {
  std::string dir;
  int nsec = 0;
  is >> dir >> nsec;
  TT_CHECK(is && (dir == "I" || dir == "O") && nsec > 0, "corrupt index header");
  std::vector<symm::Sector> sectors;
  for (int s = 0; s < nsec; ++s) {
    QN q = read_qn(is);
    index_t dim = 0;
    is >> dim;
    TT_CHECK(is && dim > 0, "corrupt index sector dimension");
    sectors.push_back({q, dim});
  }
  TT_CHECK(is, "corrupt index sectors");
  return Index(sectors, dir == "I" ? Dir::In : Dir::Out);
}

void write_block_tensor(std::ostream& os, const BlockTensor& t) {
  os << "TENSOR " << t.order() << " ";
  write_qn(os, t.flux());
  os << "\n";
  for (int m = 0; m < t.order(); ++m) write_index(os, t.index(m));
  os << t.num_blocks() << "\n";
  for (const auto& [key, blk] : t.blocks()) {
    for (int v : key) os << v << " ";
    os << "\n";
    for (index_t i = 0; i < blk.size(); ++i) {
      if (i) os << " ";
      write_real_hex(os, blk[i]);
    }
    os << "\n";
  }
}

BlockTensor read_block_tensor(std::istream& is) {
  std::string tag;
  int order = 0;
  is >> tag >> order;
  TT_CHECK(is && tag == "TENSOR" && order >= 0, "corrupt tensor header");
  QN flux = read_qn(is);
  std::vector<Index> indices;
  for (int m = 0; m < order; ++m) indices.push_back(read_index(is));
  BlockTensor t(indices, flux);
  int nblocks = 0;
  is >> nblocks;
  TT_CHECK(is && nblocks >= 0, "corrupt block count");
  for (int b = 0; b < nblocks; ++b) {
    symm::BlockKey key(static_cast<std::size_t>(order));
    for (int m = 0; m < order; ++m) is >> key[static_cast<std::size_t>(m)];
    TT_CHECK(is, "corrupt block key");
    const tensor::View blk = t.block(key);  // validates conservation
    for (index_t i = 0; i < blk.size(); ++i) blk[i] = read_real_hex(is);
  }
  return t;
}

void check_phys_match(const BlockTensor& t, int mode, const SiteSet& sites) {
  TT_CHECK(t.index(mode).sectors() == sites.phys().sectors(),
           "stored tensor's physical leg does not match the site set");
}

}  // namespace

void read_header(std::istream& is, const char* expect_magic, int expect_version) {
  std::string magic;
  is >> magic;
  TT_CHECK(is, "truncated stream: missing " << expect_magic << " header");
  TT_CHECK(magic == expect_magic, "bad magic '" << magic << "': not a "
                                                << expect_magic << " stream");
  int version = 0;
  is >> version;
  TT_CHECK(is, "truncated stream: missing " << expect_magic << " version");
  TT_CHECK(version == expect_version,
           "unsupported " << expect_magic << " version " << version
                          << " (reader understands version " << expect_version
                          << ")");
}

void write_real_hex(std::ostream& os, real_t v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%a", v);
  os << buf;
}

real_t read_real_hex(std::istream& is) {
  std::string tok;
  is >> tok;
  TT_CHECK(is, "truncated stream: missing numeric value");
  char* end = nullptr;
  const double v = std::strtod(tok.c_str(), &end);
  TT_CHECK(end == tok.c_str() + tok.size() && !tok.empty(),
           "corrupt numeric value '" << tok << "'");
  return v;
}

void write_mps(std::ostream& os, const Mps& psi) {
  os << "TTMPS 1\n" << psi.size() << " " << psi.sites()->qn_rank() << "\n";
  for (int j = 0; j < psi.size(); ++j) write_block_tensor(os, psi.site(j));
}

Mps read_mps(std::istream& is, SiteSetPtr sites) {
  read_header(is, "TTMPS", 1);
  int n = 0, rank = 0;
  is >> n >> rank;
  TT_CHECK(is, "truncated stream: missing TTMPS size header");
  TT_CHECK(sites && sites->size() == n,
           "stream holds " << n << " sites, site set has "
                           << (sites ? sites->size() : 0));
  TT_CHECK(sites->qn_rank() == rank, "QN rank mismatch");

  // Build a scaffold state, then replace every tensor.
  Mps psi = Mps::product_state(sites, std::vector<int>(static_cast<std::size_t>(n), 0));
  for (int j = 0; j < n; ++j) {
    BlockTensor t = read_block_tensor(is);
    check_phys_match(t, 1, *sites);
    psi.set_site(j, std::move(t));
  }
  psi.check_consistency();
  return psi;
}

void save_mps(const std::string& path, const Mps& psi) {
  std::ofstream os(path);
  TT_CHECK(os.good(), "cannot open '" << path << "' for writing");
  write_mps(os, psi);
}

Mps load_mps(const std::string& path, SiteSetPtr sites) {
  std::ifstream is(path);
  TT_CHECK(is.good(), "cannot open '" << path << "' for reading");
  return read_mps(is, std::move(sites));
}

}  // namespace tt::mps
