// Tiny command-line flag parser for the example and benchmark executables.
//
// Supports "--name value" and "--name=value" forms plus boolean switches (a
// bare "--name": get_bool reads it as true, get() as the empty string).
#pragma once

#include <map>
#include <string>
#include <vector>

namespace tt {

/// Parsed command-line arguments with typed, defaulted accessors.
class Cli {
 public:
  /// Parse argv; throws tt::Error on malformed flags (missing value, etc.).
  Cli(int argc, const char* const* argv);

  bool has(const std::string& name) const;
  std::string get(const std::string& name, const std::string& def) const;
  long long get_int(const std::string& name, long long def) const;
  double get_double(const std::string& name, double def) const;
  bool get_bool(const std::string& name, bool def) const;

  /// Names of all flags seen; used to reject typos in strict tools.
  std::vector<std::string> flag_names() const;

  /// Throw tt::Error unless every flag seen is one of `value_flags`, given
  /// with a non-empty value, or one of `switches`, and nothing is positional.
  void allow_only(const std::vector<std::string>& value_flags,
                  const std::vector<std::string>& switches = {}) const;

 private:
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

}  // namespace tt
