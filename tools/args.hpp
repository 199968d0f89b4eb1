#pragma once

// Minimal dependency-free argument parser for the are_cli tool:
// --key=value / --key value / --flag, with typed access and error
// reporting. Repeatable options are read with get_all(); every other
// accessor rejects an option given more than once.

#include <cstdint>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace are::tools {

class Args {
 public:
  Args(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string token = argv[i];
      if (token.rfind("--", 0) != 0) {
        positional_.push_back(std::move(token));
        continue;
      }
      token = token.substr(2);
      const auto equals = token.find('=');
      if (equals != std::string::npos) {
        values_[token.substr(0, equals)].push_back(token.substr(equals + 1));
      } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        values_[token].push_back(argv[++i]);
      } else {
        values_[token].push_back("");  // bare flag
      }
    }
  }

  bool has(const std::string& key) const { return values_.count(key) > 0; }

  /// Every value given for a repeatable option (--elt a --elt b), in
  /// command-line order; empty when absent.
  std::vector<std::string> get_all(const std::string& key) const {
    const auto it = values_.find(key);
    return it == values_.end() ? std::vector<std::string>{} : it->second;
  }

  std::string get(const std::string& key, const std::string& fallback) const {
    const std::string* value = single(key);
    return value == nullptr ? fallback : *value;
  }

  std::string require(const std::string& key) const {
    const std::string* value = single(key);
    if (value == nullptr || value->empty()) {
      throw std::runtime_error("missing required option --" + key);
    }
    return *value;
  }

  std::uint64_t get_u64(const std::string& key, std::uint64_t fallback) const {
    const std::string* value = single(key);
    return value == nullptr ? fallback : parse_u64(key, *value);
  }

  double get_double(const std::string& key, double fallback) const {
    const std::string* value = single(key);
    if (value == nullptr) return fallback;
    try {
      return std::stod(*value);
    } catch (const std::exception&) {
      throw std::runtime_error("option --" + key + " expects a number, got '" + *value + "'");
    }
  }

  const std::vector<std::string>& positional() const { return positional_; }

 private:
  /// The one value of a single-valued option; nullptr when absent. A
  /// repeat is an error, never a silent last-value-wins.
  const std::string* single(const std::string& key) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return nullptr;
    if (it->second.size() > 1) {
      throw std::runtime_error("option --" + key + " given " +
                               std::to_string(it->second.size()) +
                               " times; it takes one value");
    }
    return &it->second.front();
  }

  static std::uint64_t parse_u64(const std::string& key, const std::string& value) {
    try {
      const long long parsed = std::stoll(value);
      if (parsed < 0) throw std::runtime_error("");
      return static_cast<std::uint64_t>(parsed);
    } catch (const std::exception&) {
      throw std::runtime_error("option --" + key + " expects a non-negative integer, got '" +
                               value + "'");
    }
  }

  std::map<std::string, std::vector<std::string>> values_;
  std::vector<std::string> positional_;
};

}  // namespace are::tools
