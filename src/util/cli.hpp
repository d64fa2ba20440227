#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/require.hpp"

/// \file cli.hpp
/// Minimal command-line flag parser for the CLI, bench and example
/// binaries.
///
/// Supported syntax: `--name=value`, `--name value`, and boolean `--name`.
/// Unknown flags raise an error that names the offending flag *and* lists
/// every flag the (sub)command accepts, so typos don't silently change
/// experiments and the fix is visible without reaching for --help.

namespace cawo {

/// A command-line usage error: an unknown flag, a positional argument or
/// a malformed flag value. Its message is meant for the user as is (no
/// source location); `cawosched-cli` prints it and exits 2.
class UsageError : public PreconditionError {
public:
  using PreconditionError::PreconditionError;
};

class CliArgs {
public:
  /// Parse `argv`; `context` names the surface for error messages (e.g.
  /// "cawosched-cli replay") — unknown-flag errors read
  /// "unknown flag --foo for <context> (valid: --a, --b, ...)".
  /// Throws UsageError.
  CliArgs(int argc, const char* const* argv,
          const std::vector<std::string>& knownFlags,
          const std::string& context = "");

  bool has(const std::string& name) const;
  /// The flag's value parsed strictly (the whole value, in range), or
  /// `fallback` when the flag is absent; a malformed value throws
  /// UsageError naming the flag.
  std::int64_t getInt(const std::string& name, std::int64_t fallback) const;
  double getDouble(const std::string& name, double fallback) const;
  std::string getString(const std::string& name,
                        const std::string& fallback) const;

private:
  std::map<std::string, std::string> values_;
};

/// Parse a `--threads`-style flag with the repo-wide convention: 0 means
/// "hardware concurrency", a positive value is an explicit worker count,
/// and a negative value or one above UINT_MAX is a UsageError — the
/// unsigned plumbing downstream would otherwise wrap or narrow it.
/// Returns `fallback` when the flag is absent.
unsigned threadsFromArgs(const CliArgs& args, const std::string& name,
                         unsigned fallback);

} // namespace cawo
