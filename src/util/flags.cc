#include "util/flags.h"

#include <cerrno>
#include <cstdlib>
#include <stdexcept>

namespace turtle::util {

Flags Flags::parse(int argc, const char* const* argv) {
  Flags flags;
  bool flags_done = false;
  for (int i = 1; i < argc; ++i) {
    std::string token = argv[i];
    if (flags_done) {
      flags.positionals_.push_back(std::move(token));
      continue;
    }
    if (token == "--") {
      flags_done = true;
      continue;
    }
    if (token.rfind("--", 0) != 0) {
      flags.positionals_.push_back(std::move(token));
      continue;
    }
    token.erase(0, 2);
    const auto eq = token.find('=');
    if (eq != std::string::npos) {
      flags.values_[token.substr(0, eq)] = token.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags.values_[token] = argv[++i];
    } else {
      flags.values_[token] = "";  // bare boolean flag
    }
  }
  return flags;
}

bool Flags::has(const std::string& name) const { return values_.count(name) != 0; }

std::int64_t Flags::get_int(const std::string& name, std::int64_t def) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return def;
  char* end = nullptr;
  errno = 0;
  const std::int64_t v = std::strtoll(it->second.c_str(), &end, 10);
  if (end == it->second.c_str() || *end != '\0' || errno == ERANGE) {
    throw std::invalid_argument("flag --" + name + " expects an integer, got '" + it->second + "'");
  }
  return v;
}

std::int64_t Flags::get_int_in(const std::string& name, std::int64_t def, std::int64_t lo,
                               std::int64_t hi) const {
  const std::int64_t v = get_int(name, def);
  if (v < lo || v > hi) {
    throw std::invalid_argument("flag --" + name + " must be in [" + std::to_string(lo) + ", " +
                                std::to_string(hi) + "], got " + std::to_string(v));
  }
  return v;
}

double Flags::get_double(const std::string& name, double def) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return def;
  char* end = nullptr;
  const double v = std::strtod(it->second.c_str(), &end);
  if (end == it->second.c_str() || *end != '\0') {
    throw std::invalid_argument("flag --" + name + " expects a number, got '" + it->second + "'");
  }
  return v;
}

std::string Flags::get_string(const std::string& name, std::string def) const {
  const auto it = values_.find(name);
  return it == values_.end() ? std::move(def) : it->second;
}

bool Flags::get_bool(const std::string& name, bool def) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return def;
  const std::string& v = it->second;
  if (v.empty() || v == "true" || v == "1" || v == "yes") return true;
  if (v == "false" || v == "0" || v == "no") return false;
  throw std::invalid_argument("flag --" + name + " expects a boolean, got '" + v + "'");
}

void Flags::reject_unknown(std::string_view prefix,
                           std::initializer_list<std::string_view> allowed,
                           std::string_view hint) const {
  for (const auto& [name, _] : values_) {
    if (std::string_view{name}.substr(0, prefix.size()) != prefix) continue;
    bool ok = false;
    for (const std::string_view a : allowed) {
      if (name == a) {
        ok = true;
        break;
      }
    }
    if (ok) continue;
    std::string message = "unknown flag --" + name + "; valid --" + std::string(prefix) +
                          "* flags are:";
    for (const std::string_view a : allowed) {
      message += " --";
      message += a;
    }
    if (!hint.empty()) {
      message += ". ";
      message += hint;
    }
    throw std::invalid_argument(message);
  }
}

std::vector<std::string> Flags::names() const {
  std::vector<std::string> out;
  out.reserve(values_.size());
  for (const auto& [k, _] : values_) out.push_back(k);
  return out;
}

}  // namespace turtle::util
