#include "flags.h"

#include <algorithm>
#include <optional>
#include <stdexcept>

namespace rn::cli {

namespace {

[[noreturn]] void fail(const std::string& msg) {
  throw std::runtime_error(msg);
}

// Parses all of s with parse(s, &pos), a std::sto* call. A value with
// characters left over ("6x", or "1.5" for an integer) fails like one with
// no number at all.
template <typename Parse>
auto parse_whole(const std::string& s, Parse parse)
    -> std::optional<decltype(parse(s, nullptr))> {
  std::size_t pos = 0;
  try {
    const auto v = parse(s, &pos);
    if (pos == s.size()) return v;
  } catch (const std::exception&) {
  }
  return std::nullopt;
}

template <typename T>
T require_whole(const std::string& name, const std::string& s,
                const char* expects, const std::optional<T>& v) {
  if (!v) fail("flag --" + name + " expects " + expects + ", got '" + s + "'");
  return *v;
}

}  // namespace

std::optional<int> parse_whole_int(const std::string& s) {
  return parse_whole(s, [](const std::string& v, std::size_t* pos) {
    return std::stoi(v, pos);
  });
}

std::optional<double> parse_whole_double(const std::string& s) {
  return parse_whole(s, [](const std::string& v, std::size_t* pos) {
    return std::stod(v, pos);
  });
}

Flags::Flags(int argc, const char* const* argv, int start,
             const std::vector<std::string>& bool_names) {
  for (int i = start; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0 || arg.size() <= 2) {
      fail("unexpected argument '" + arg + "' (flags look like --name value)");
    }
    const std::string name = arg.substr(2);
    const bool is_bool = std::find(bool_names.begin(), bool_names.end(),
                                   name) != bool_names.end();
    if (is_bool) {
      values_[name] = "true";
      used_[name] = false;
      continue;
    }
    if (i + 1 >= argc) fail("flag --" + name + " needs a value");
    values_[name] = argv[++i];
    used_[name] = false;
  }
}

bool Flags::has(const std::string& name) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return false;
  used_[name] = true;
  return true;
}

bool Flags::peek(const std::string& name) const {
  return values_.find(name) != values_.end();
}

const std::string& Flags::raw(const std::string& name) const {
  const auto it = values_.find(name);
  if (it == values_.end()) fail("missing required flag --" + name);
  used_[name] = true;
  return it->second;
}

std::string Flags::get_string(const std::string& name,
                              const std::string& fallback) const {
  return has(name) ? raw(name) : fallback;
}

std::string Flags::require_string(const std::string& name) const {
  return raw(name);
}

int Flags::get_int(const std::string& name, int fallback) const {
  if (!has(name)) return fallback;
  return require_whole(name, raw(name), "an integer",
                       parse_whole_int(raw(name)));
}

std::int64_t Flags::get_int64(const std::string& name,
                              std::int64_t fallback) const {
  if (!has(name)) return fallback;
  return require_whole(
      name, raw(name), "an integer",
      parse_whole(raw(name), [](const std::string& s, std::size_t* pos) {
        return std::stoll(s, pos);
      }));
}

double Flags::get_double(const std::string& name, double fallback) const {
  if (!has(name)) return fallback;
  return require_whole(name, raw(name), "a number",
                       parse_whole_double(raw(name)));
}

bool Flags::get_bool(const std::string& name) const { return has(name); }

std::uint64_t Flags::get_seed(const std::string& name,
                              std::uint64_t fallback) const {
  if (!has(name)) return fallback;
  return require_whole(
      name, raw(name), "a seed",
      parse_whole(raw(name), [](const std::string& s, std::size_t* pos) {
        // std::stoull would accept a minus sign and wrap.
        if (s.find('-') != std::string::npos) {
          throw std::invalid_argument(s);
        }
        return std::stoull(s, pos);
      }));
}

void Flags::reject_unused() const {
  for (const auto& [name, used] : used_) {
    if (!used) fail("unknown flag --" + name);
  }
}

}  // namespace rn::cli
