#pragma once
/// \file cli.hpp
/// \brief Minimal command-line / environment option parsing for the example
/// and bench binaries (`--key=value`, `--flag`; environment fallback so the
/// bench harness can be scaled via RDSE_* variables without editing code).

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/assert.hpp"

namespace rdse {

class Options {
 public:
  /// Parse argv; unrecognized positional arguments are kept in order.
  /// Accepts "--key=value", "--key value" and boolean "--flag". Options
  /// named in `bool_flags` never consume the following token, so
  /// "--quiet path" keeps "path" positional instead of treating it as the
  /// flag's value. A non-boolean "--key" with no following value token
  /// (end of argv, or another "--option" next) throws Error — a forgotten
  /// value must fail loudly instead of misparsing as a flag.
  static Options parse(int argc, const char* const* argv,
                       std::span<const std::string_view> bool_flags);
  static Options parse(int argc, const char* const* argv) {
    return parse(argc, argv, {});
  }

  /// Look up --name, else environment variable env_name (if non-empty),
  /// else nothing.
  [[nodiscard]] std::optional<std::string> get(
      const std::string& name, const std::string& env_name = "") const;

  /// Numeric getters parse the whole token ("10abc" and "1.5x" are errors,
  /// not 10 and 1.5) and throw Error on any malformed value.
  [[nodiscard]] std::int64_t get_int(const std::string& name,
                                     std::int64_t def,
                                     const std::string& env_name = "") const;
  [[nodiscard]] double get_double(const std::string& name, double def,
                                  const std::string& env_name = "") const;
  [[nodiscard]] std::string get_string(const std::string& name,
                                       std::string def,
                                       const std::string& env_name = "") const;
  [[nodiscard]] bool get_flag(const std::string& name,
                              const std::string& env_name = "") const;

  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

  /// Strict front-ends (the `rdse` binary): throw Error naming the first
  /// parsed option that is not in `allowed`. The permissive bench/example
  /// binaries simply never call this.
  void require_known(std::span<const std::string_view> allowed) const;

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

/// Integer option --NAME (or `env_name`) as a T: refused below `min` with
/// `below_min`, and refused when T cannot hold it — a narrowing cast would
/// turn 2^32 + 1 runs into one run and -1 threads into 2^32 - 1.
template <typename T>
T get_int_as(const Options& opts, const std::string& name,
             std::int64_t fallback,
             std::int64_t min = std::numeric_limits<std::int64_t>::min(),
             std::string_view below_min = {},
             const std::string& env_name = "") {
  const std::int64_t value = opts.get_int(name, fallback, env_name);
  RDSE_REQUIRE(value >= min,
               "option --" + name + ": " + std::string(below_min));
  RDSE_REQUIRE(std::in_range<T>(value),
               "option --" + name + ": " + std::to_string(value) +
                   " is out of range");
  return static_cast<T>(value);
}

}  // namespace rdse
