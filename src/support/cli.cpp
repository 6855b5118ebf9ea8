#include "support/cli.hpp"

#include <algorithm>
#include <cstdlib>

#include "support/error.hpp"

namespace tt {

Cli::Cli(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    std::string body = arg.substr(2);
    TT_CHECK(!body.empty(), "bare '--' is not a valid flag");
    auto eq = body.find('=');
    if (eq != std::string::npos) {
      flags_[body.substr(0, eq)] = body.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags_[body] = argv[++i];
    } else {
      flags_[body] = "";  // boolean switch
    }
  }
}

bool Cli::has(const std::string& name) const { return flags_.count(name) != 0; }

std::string Cli::get(const std::string& name, const std::string& def) const {
  auto it = flags_.find(name);
  return it == flags_.end() ? def : it->second;
}

long long Cli::get_int(const std::string& name, long long def) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return def;
  char* end = nullptr;
  long long v = std::strtoll(it->second.c_str(), &end, 10);
  TT_CHECK(!it->second.empty() && *end == '\0',
           "flag --" << name << " is not an integer: '" << it->second << "'");
  return v;
}

double Cli::get_double(const std::string& name, double def) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return def;
  char* end = nullptr;
  double v = std::strtod(it->second.c_str(), &end);
  TT_CHECK(!it->second.empty() && *end == '\0',
           "flag --" << name << " is not a number: '" << it->second << "'");
  return v;
}

bool Cli::get_bool(const std::string& name, bool def) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return def;
  const std::string& v = it->second;
  if (v.empty() || v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  TT_FAIL("flag --" << name << " is not a boolean: " << v);
}

std::vector<std::string> Cli::flag_names() const {
  std::vector<std::string> names;
  names.reserve(flags_.size());
  for (const auto& [k, _] : flags_) names.push_back(k);
  return names;
}

void Cli::allow_only(const std::vector<std::string>& value_flags,
                     const std::vector<std::string>& switches) const {
  TT_CHECK(positional_.empty(), "unexpected argument '" << positional_.front() << "'");
  auto listed = [](const std::vector<std::string>& names, const std::string& name) {
    return std::find(names.begin(), names.end(), name) != names.end();
  };
  for (const std::string& name : flag_names()) {
    if (listed(switches, name)) continue;
    if (!listed(value_flags, name)) {
      std::string known;
      for (const auto& list : {value_flags, switches})
        for (const std::string& k : list) known += " --" + k;
      TT_FAIL("unknown flag --" << name << " (accepted:"
                                << (known.empty() ? " none" : known) << ")");
    }
    TT_CHECK(!get(name, "").empty(), "flag --" << name << " needs a value");
  }
}

}  // namespace tt
