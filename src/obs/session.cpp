#include "obs/session.hpp"

#include <fstream>
#include <iostream>
#include <utility>

#include "obs/trace.hpp"
#include "util/require.hpp"

namespace cawo::obs {

TraceSession::TraceSession(std::string traceFile, bool summary)
    : traceFile_(std::move(traceFile)), summary_(summary) {
  active_ = !traceFile_.empty() || summary_;
  if (active_) TraceRecorder::global().setState(TraceState::Recording);
}

TraceSession::~TraceSession() {
  if (active_ && !finished_) finish();
}

void TraceSession::finish() { finish(std::cerr); }

void TraceSession::finish(std::ostream& err) {
  if (!active_ || finished_) return;
  finished_ = true;
  auto& recorder = TraceRecorder::global();
  recorder.setState(TraceState::Off);
  if (!traceFile_.empty()) {
    std::ofstream out(traceFile_);
    CAWO_REQUIRE(out.good(), "cannot open trace file " + traceFile_);
    recorder.writeChromeTrace(out);
    err << "trace: wrote " << recorder.eventCount() << " events to "
        << traceFile_ << "\n";
  }
  if (summary_) recorder.writeSummary(err);
}

} // namespace cawo::obs
