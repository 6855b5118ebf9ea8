#include "runtime/fault.hpp"

#include <cstdlib>

#include "support/error.hpp"

namespace tt::rt {

namespace {

// xorshift64* — tiny, seedable, and good enough for fault-probability draws.
// Never seeded with 0 (the fixed point); mix the seed through splitmix-style
// constants so seed=0 and seed=1 still give distinct streams.
std::uint64_t mix_seed(std::uint64_t seed) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z ^= z >> 31;
  return z != 0 ? z : 0x2545f4914f6cdd1dull;
}

std::uint64_t xorshift_next(std::uint64_t& s) {
  s ^= s >> 12;
  s ^= s << 25;
  s ^= s >> 27;
  return s * 0x2545f4914f6cdd1dull;
}

// Uniform draw in [0, 1) from the top 53 bits.
double draw_unit(std::uint64_t& s) {
  return static_cast<double>(xorshift_next(s) >> 11) * 0x1.0p-53;
}

double parse_number(const std::string& entry, const std::string& key,
                    const std::string& value) {
  std::size_t used = 0;
  double v = 0.0;
  try {
    v = std::stod(value, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  TT_CHECK(used == value.size() && !value.empty(),
           "TT_FAULTS: bad value '" << value << "' for field '" << key
                                    << "' in entry '" << entry << "'");
  return v;
}

}  // namespace

FaultInjector& FaultInjector::instance() {
  static FaultInjector* inj = [] {
    auto* p = new FaultInjector();
    p->reload_from_env();
    return p;
  }();
  return *inj;
}

FaultSpec FaultInjector::parse_entry(const std::string& entry) {
  FaultSpec spec;
  const std::size_t colon = entry.find(':');
  spec.point = entry.substr(0, colon);
  TT_CHECK(!spec.point.empty(), "TT_FAULTS: empty fault-point name in entry '"
                                    << entry << "'");
  if (colon == std::string::npos) return spec;

  std::size_t pos = colon + 1;
  while (pos <= entry.size()) {
    const std::size_t semi = entry.find(';', pos);
    const std::string field =
        entry.substr(pos, semi == std::string::npos ? std::string::npos : semi - pos);
    pos = semi == std::string::npos ? entry.size() + 1 : semi + 1;
    if (field.empty()) continue;
    const std::size_t eq = field.find('=');
    TT_CHECK(eq != std::string::npos,
             "TT_FAULTS: field '" << field << "' in entry '" << entry
                                  << "' is not key=value");
    const std::string key = field.substr(0, eq);
    const std::string value = field.substr(eq + 1);
    if (key == "nth") {
      spec.nth = static_cast<int>(parse_number(entry, key, value));
    } else if (key == "rank") {
      spec.rank = static_cast<int>(parse_number(entry, key, value));
    } else if (key == "count") {
      spec.count = static_cast<int>(parse_number(entry, key, value));
    } else if (key == "prob") {
      spec.prob = parse_number(entry, key, value);
      TT_CHECK(spec.prob >= 0.0 && spec.prob <= 1.0,
               "TT_FAULTS: prob must be in [0,1], got " << spec.prob);
    } else if (key == "seed") {
      spec.seed = static_cast<std::uint64_t>(parse_number(entry, key, value));
    } else if (key == "ms") {
      spec.ms = parse_number(entry, key, value);
    } else if (key == "side") {
      if (value == "any") spec.side = FaultSide::kAny;
      else if (value == "root") spec.side = FaultSide::kRoot;
      else if (value == "worker") spec.side = FaultSide::kWorker;
      else
        TT_FAIL("TT_FAULTS: side must be any/root/worker, got '" << value << "'");
    } else {
      TT_FAIL("TT_FAULTS: unknown field '" << key << "' in entry '" << entry
                                           << "'");
    }
  }
  return spec;
}

void FaultInjector::configure(const std::string& spec_list) {
  std::size_t pos = 0;
  while (pos <= spec_list.size()) {
    const std::size_t comma = spec_list.find(',', pos);
    const std::string entry = spec_list.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    pos = comma == std::string::npos ? spec_list.size() + 1 : comma + 1;
    if (entry.empty()) continue;
    arm(parse_entry(entry));
  }
}

void FaultInjector::arm(FaultSpec spec) {
  std::lock_guard<std::mutex> lock(mu_);
  Armed a;
  a.rng = mix_seed(spec.seed);
  a.spec = std::move(spec);
  armed_.push_back(std::move(a));
  active_.store(true, std::memory_order_relaxed);
}

void FaultInjector::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  armed_.clear();
  active_.store(false, std::memory_order_relaxed);
}

void FaultInjector::reload_from_env() {
  clear();
  const char* env = std::getenv("TT_FAULTS");
  if (env != nullptr && *env != '\0') configure(env);
}

bool FaultInjector::should_fire(const char* point, int rank, FaultSide side,
                                FaultSpec* fired) {
  if (!active()) return false;
  std::lock_guard<std::mutex> lock(mu_);
  for (Armed& a : armed_) {
    if (a.spec.point != point) continue;
    if (a.spec.rank >= 0 && a.spec.rank != rank) continue;
    if (a.spec.side != FaultSide::kAny && a.spec.side != side) continue;
    ++a.hits;
    if (a.spec.count > 0 && a.fires >= a.spec.count) continue;  // spent
    if (a.spec.nth > 0 && a.hits != a.spec.nth) continue;
    if (a.spec.prob < 1.0 && draw_unit(a.rng) >= a.spec.prob) continue;
    ++a.fires;
    if (fired != nullptr) *fired = a.spec;
    return true;
  }
  return false;
}

long FaultInjector::fires(const std::string& point) const {
  std::lock_guard<std::mutex> lock(mu_);
  long n = 0;
  for (const Armed& a : armed_)
    if (a.spec.point == point) n += a.fires;
  return n;
}

long FaultInjector::hits(const std::string& point) const {
  std::lock_guard<std::mutex> lock(mu_);
  long n = 0;
  for (const Armed& a : armed_)
    if (a.spec.point == point) n += a.hits;
  return n;
}

}  // namespace tt::rt
