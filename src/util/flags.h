// Minimal command-line flag parsing for bench and example binaries.
//
// Every harness accepts overrides like --blocks=500 --rounds=40 --seed=7 so
// experiments can be scaled up or down without recompiling. This parser
// supports exactly the `--name=value` and `--name value` forms plus bare
// `--name` for booleans, and collects non-flag tokens as positionals (the
// CLI tools take a command word and operands, e.g. `turtlectl query
// 10.1.2.3`); anything fancier belongs to a real library.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace turtle::util {

/// Parsed command-line flags with typed, defaulted accessors.
class Flags {
 public:
  /// Parses argv. Tokens starting with "--" are flags; anything else is a
  /// positional, kept in order. A literal "--" ends flag parsing: every
  /// later token is positional even if it starts with "--". Caveat carried
  /// by the space-separated form: `--name value` binds `value` to the flag,
  /// so positionals that follow a bare flag require `--name=value` or the
  /// "--" separator.
  static Flags parse(int argc, const char* const* argv);

  [[nodiscard]] bool has(const std::string& name) const;

  /// Non-flag tokens in command-line order.
  [[nodiscard]] const std::vector<std::string>& positionals() const { return positionals_; }

  /// Typed getters; return `def` when the flag is absent and throw
  /// std::invalid_argument when present but unparsable (an integer past
  /// the int64 range included).
  [[nodiscard]] std::int64_t get_int(const std::string& name, std::int64_t def) const;
  /// get_int that also throws, naming the flag, for a value outside
  /// [lo, hi].
  [[nodiscard]] std::int64_t get_int_in(const std::string& name, std::int64_t def,
                                        std::int64_t lo, std::int64_t hi) const;
  [[nodiscard]] double get_double(const std::string& name, double def) const;
  [[nodiscard]] std::string get_string(const std::string& name, std::string def) const;
  /// Bare `--name` and `--name=true/1/yes` are true; `--name=false/0/no` false.
  [[nodiscard]] bool get_bool(const std::string& name, bool def) const;

  /// Names of all flags that were set (used to reject typos in tests).
  [[nodiscard]] std::vector<std::string> names() const;

  /// Rejects typos within a flag family: throws std::invalid_argument if
  /// any set flag starts with `prefix` but is not one of `allowed`. The
  /// error lists the allowed names plus `hint` (e.g. the valid fault
  /// kinds), so a mistyped --fault-* flag fails loudly instead of being
  /// silently ignored.
  void reject_unknown(std::string_view prefix, std::initializer_list<std::string_view> allowed,
                      std::string_view hint = {}) const;

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positionals_;
};

}  // namespace turtle::util
