#include "util/cli.hpp"

#include <algorithm>
#include <limits>

#include "util/strings.hpp"

namespace cawo {

namespace {

/// Strict parse of a flag value: trailing garbage or overflow is a usage
/// error that names the flag.
template <class T>
T parseFlag(const std::string& name, const std::string& value,
            T (*parse)(const std::string&, const std::string&),
            const char* kind) {
  try {
    return parse("--" + name, value);
  } catch (const PreconditionError&) {
    throw UsageError("--" + name + ": \"" + value + "\" is not " + kind);
  }
}

} // namespace

CliArgs::CliArgs(int argc, const char* const* argv,
                 const std::vector<std::string>& knownFlags,
                 const std::string& context) {
  // A typo'd flag must not just name itself — it lists what *would* have
  // been accepted, per surface/subcommand.
  const auto validList = [&knownFlags] {
    std::string out;
    for (const std::string& flag : knownFlags) {
      if (!out.empty()) out += ", ";
      out += "--" + flag;
    }
    return out;
  };
  const std::string where = context.empty() ? "" : " for " + context;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (!startsWith(arg, "--"))
      throw UsageError("unexpected positional argument" + where + ": " + arg);
    arg = arg.substr(2);
    std::string name;
    std::string value;
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      name = arg.substr(0, eq);
      value = arg.substr(eq + 1);
    } else {
      name = arg;
      if (i + 1 < argc && !startsWith(argv[i + 1], "--")) {
        value = argv[++i];
      } else {
        value = "1"; // boolean flag
      }
    }
    if (std::find(knownFlags.begin(), knownFlags.end(), name) ==
        knownFlags.end())
      throw UsageError("unknown flag --" + name + where + " (valid: " +
                       validList() + ")");
    values_[name] = value;
  }
}

bool CliArgs::has(const std::string& name) const {
  return values_.count(name) != 0;
}

std::int64_t CliArgs::getInt(const std::string& name,
                             std::int64_t fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return parseFlag(name, it->second, parseInt64Strict, "an integer");
}

double CliArgs::getDouble(const std::string& name, double fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return parseFlag(name, it->second, parseDoubleStrict, "a number");
}

std::string CliArgs::getString(const std::string& name,
                               const std::string& fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return it->second;
}

unsigned threadsFromArgs(const CliArgs& args, const std::string& name,
                         unsigned fallback) {
  const std::int64_t value =
      args.getInt(name, static_cast<std::int64_t>(fallback));
  if (value < 0)
    throw UsageError("flag --" + name +
                     " must be >= 0 (0 = all hardware threads), got " +
                     std::to_string(value));
  if (value > std::numeric_limits<unsigned>::max())
    throw UsageError("flag --" + name + " must be <= " +
                     std::to_string(std::numeric_limits<unsigned>::max()) +
                     ", got " + std::to_string(value));
  return static_cast<unsigned>(value);
}

} // namespace cawo
