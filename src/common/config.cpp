#include "common/config.h"

#include <stdexcept>

namespace pim {

config config::from_args(const std::vector<std::string>& args) {
  config cfg;
  for (const auto& arg : args) {
    const auto eq = arg.find('=');
    if (eq == std::string::npos || eq == 0) {
      throw std::invalid_argument("config: expected key=value, got '" + arg +
                                  "'");
    }
    cfg.set(arg.substr(0, eq), arg.substr(eq + 1));
  }
  return cfg;
}

void config::set(const std::string& key, const std::string& value) {
  values_[key] = value;
}

bool config::has(const std::string& key) const {
  return values_.count(key) != 0;
}

std::string config::get_string(const std::string& key,
                               const std::string& fallback) const {
  auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

std::int64_t config::get_int(const std::string& key, std::int64_t fallback,
                             std::int64_t lo, std::int64_t hi) const {
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  std::int64_t value = 0;
  try {
    std::size_t pos = 0;
    value = std::stoll(it->second, &pos);
    if (pos != it->second.size()) throw std::invalid_argument("trailing");
  } catch (const std::exception&) {
    throw std::invalid_argument("config: '" + key + "' is not an integer: " +
                                it->second);
  }
  if (value < lo || value > hi) {
    throw std::invalid_argument("config: '" + key + "' = " + it->second +
                                " is outside [" + std::to_string(lo) + ", " +
                                std::to_string(hi) + "]");
  }
  return value;
}

double config::get_double(const std::string& key, double fallback) const {
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  try {
    std::size_t pos = 0;
    const double value = std::stod(it->second, &pos);
    if (pos != it->second.size()) throw std::invalid_argument("trailing");
    return value;
  } catch (const std::exception&) {
    throw std::invalid_argument("config: '" + key + "' is not a number: " +
                                it->second);
  }
}

bool config::get_bool(const std::string& key, bool fallback) const {
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  if (it->second == "true" || it->second == "1") return true;
  if (it->second == "false" || it->second == "0") return false;
  throw std::invalid_argument("config: '" + key + "' is not a bool: " +
                              it->second);
}

}  // namespace pim
