// Minimal command-line flag parsing for the tools and examples.
//
// Syntax: `--name value` or `--name=value`; bare `--flag` is a boolean
// true. Unknown flags are an error (fail loudly rather than silently
// ignoring a typo in an experiment configuration). Typed getters return a
// default when the flag is absent and throw std::invalid_argument when the
// value does not parse.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace radnet {

class CliArgs {
 public:
  /// Parses argv[1..argc). `known` lists the accepted flag names (without
  /// the leading dashes); anything else throws.
  CliArgs(int argc, const char* const* argv,
          const std::vector<std::string>& known);

  [[nodiscard]] bool has(const std::string& name) const;

  [[nodiscard]] std::string get_string(const std::string& name,
                                       const std::string& fallback) const;
  [[nodiscard]] std::int64_t get_int(const std::string& name,
                                     std::int64_t fallback) const;
  [[nodiscard]] std::uint64_t get_u64(const std::string& name,
                                      std::uint64_t fallback) const;
  [[nodiscard]] bool get_bool(const std::string& name, bool fallback) const;

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace radnet
