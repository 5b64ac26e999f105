// Minimal typed key-value configuration.
//
// Benches and examples accept "key=value" overrides on the command
// line; this class parses and validates them so every experiment can be
// re-run with different parameters without recompiling.
#ifndef PIM_COMMON_CONFIG_H
#define PIM_COMMON_CONFIG_H

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

namespace pim {

class config {
 public:
  config() = default;

  /// Parses "key=value" tokens (e.g. argv[1..]); throws
  /// std::invalid_argument on malformed tokens.
  static config from_args(const std::vector<std::string>& args);

  void set(const std::string& key, const std::string& value);

  bool has(const std::string& key) const;

  /// Typed getters with defaults; throw std::invalid_argument when the
  /// stored text does not parse as the requested type, or when a stored
  /// integer lies outside [lo, hi] (so a narrowing cast of the result
  /// cannot wrap).
  std::string get_string(const std::string& key,
                         const std::string& fallback) const;
  std::int64_t get_int(
      const std::string& key, std::int64_t fallback,
      std::int64_t lo = std::numeric_limits<std::int64_t>::min(),
      std::int64_t hi = std::numeric_limits<std::int64_t>::max()) const;
  double get_double(const std::string& key, double fallback) const;
  bool get_bool(const std::string& key, bool fallback) const;

  const std::map<std::string, std::string>& all() const { return values_; }

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace pim

#endif  // PIM_COMMON_CONFIG_H
