#pragma once

#include <iosfwd>
#include <string>

/// \file session.hpp
/// CLI-facing lifetime wrapper around the trace recorder.
///
/// `cawosched-cli` constructs one `TraceSession` per invocation from the
/// `--trace=FILE` / `--trace-summary` flags of whichever mode runs. When
/// either is requested, the session flips the recorder to Recording for
/// its lifetime; `finish()` writes the Chrome trace file and/or prints
/// the hierarchical summary to stderr. The destructor finishes
/// best-effort so early-return paths still produce the trace.

namespace cawo::obs {

class TraceSession {
public:
  /// `traceFile` empty means "no --trace flag". `summary` requests the
  /// plain-text rollup on finish.
  TraceSession(std::string traceFile, bool summary);
  ~TraceSession();

  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  /// True when tracing was requested (recorder is in Recording state).
  bool active() const { return active_; }

  /// Write the trace file (if any) and print the summary (if requested)
  /// to `err`; turns recording off. Idempotent.
  void finish(std::ostream& err);
  void finish(); ///< finish(std::cerr)

private:
  std::string traceFile_;
  bool summary_ = false;
  bool active_ = false;
  bool finished_ = false;
};

} // namespace cawo::obs
