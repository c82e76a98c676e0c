// Minimal command-line flag parser for the routenet CLI.
//
// Supports `--name value` and boolean `--name` forms. Values are fetched
// typed, with defaults; unknown or malformed flags raise with a message the
// CLI turns into usage help.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace rn::cli {

// The whole-string rule every numeric flag follows, for commands that read
// positional arguments themselves: all of s must be the number, so "5x"
// (or "1.5" for an integer) is nullopt like "x" is.
std::optional<int> parse_whole_int(const std::string& s);
std::optional<double> parse_whole_double(const std::string& s);

class Flags {
 public:
  // Parses argv[start..argc); boolean flags are those listed in bool_names.
  Flags(int argc, const char* const* argv, int start,
        const std::vector<std::string>& bool_names = {});

  bool has(const std::string& name) const;

  // Like has(), but does NOT mark the flag as used — for dispatch code
  // that inspects a flag (e.g. --resume selecting append-mode sinks)
  // while the command's own handler remains responsible for consuming it.
  bool peek(const std::string& name) const;

  std::string get_string(const std::string& name,
                         const std::string& fallback) const;
  // Overload without fallback: flag is required.
  std::string require_string(const std::string& name) const;

  int get_int(const std::string& name, int fallback) const;
  // 64-bit variant for flags that count samples — paper-scale corpora
  // overflow int.
  std::int64_t get_int64(const std::string& name, std::int64_t fallback) const;
  double get_double(const std::string& name, double fallback) const;
  bool get_bool(const std::string& name) const;  // false unless present
  std::uint64_t get_seed(const std::string& name,
                         std::uint64_t fallback) const;

  // Throws if any parsed flag was never read — catches typos like --epoch.
  void reject_unused() const;

 private:
  const std::string& raw(const std::string& name) const;

  std::map<std::string, std::string> values_;
  mutable std::map<std::string, bool> used_;
};

}  // namespace rn::cli
