#include "support/cli_args.hpp"

#include <algorithm>
#include <cstdlib>

#include "support/require.hpp"

namespace radnet {

CliArgs::CliArgs(int argc, const char* const* argv,
                 const std::vector<std::string>& known) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    RADNET_REQUIRE(arg.rfind("--", 0) == 0, "flags must start with --: " + arg);
    arg = arg.substr(2);
    std::string value;
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      value = argv[++i];
    } else {
      value = "true";  // bare boolean flag
    }
    RADNET_REQUIRE(std::find(known.begin(), known.end(), arg) != known.end(),
                   "unknown flag --" + arg);
    values_[arg] = value;
  }
}

bool CliArgs::has(const std::string& name) const {
  return values_.count(name) != 0;
}

std::string CliArgs::get_string(const std::string& name,
                                const std::string& fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

std::int64_t CliArgs::get_int(const std::string& name,
                              std::int64_t fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  char* end = nullptr;
  const long long v = std::strtoll(it->second.c_str(), &end, 0);
  RADNET_REQUIRE(end != nullptr && *end == '\0' && !it->second.empty(),
                 "flag --" + name + " expects an integer, got " + it->second);
  return v;
}

std::uint64_t CliArgs::get_u64(const std::string& name,
                               std::uint64_t fallback) const {
  const std::int64_t v = get_int(name, static_cast<std::int64_t>(fallback));
  RADNET_REQUIRE(v >= 0, "flag --" + name + " expects a non-negative integer");
  return static_cast<std::uint64_t>(v);
}

bool CliArgs::get_bool(const std::string& name, bool fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const std::string& s = it->second;
  if (s == "true" || s == "1" || s == "yes" || s == "on") return true;
  if (s == "false" || s == "0" || s == "no" || s == "off") return false;
  RADNET_REQUIRE(false, "flag --" + name + " expects a boolean, got " + s);
  return fallback;
}

}  // namespace radnet
