#include "obs/session.hpp"

#include <cstdint>
#include <ostream>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "obs/trace.hpp"

namespace nsrel::obs {

Session::Session(Options options) : options_(std::move(options)) {
  const std::uint32_t requested =
      (options_.metrics || options_.registry ? kMetrics : 0U) |
      (options_.trace_path.empty() ? 0U : kTrace) |
      (options_.journal ? kJournal : 0U);
  owned_ = requested & ~Recorder::channels();
  Recorder::instance().clear(owned_);
  Recorder::instance().enable(owned_);
}

Session::~Session() {
  if (!finished_) Recorder::instance().disable(owned_);
}

bool Session::finish(std::ostream& err) {
  if (finished_) return true;
  finished_ = true;
  Recorder::instance().disable(owned_);
  bool ok = true;
  if (owns(kTrace) &&
      !TraceRecorder::instance().write_file(options_.trace_path)) {
    err << "cannot write trace file '" << options_.trace_path << "'\n";
    ok = false;
  }
  if (owns(kMetrics) && options_.metrics) {
    print_metrics_block(Recorder::instance().snapshot(), err);
  }
  return ok;
}

}  // namespace nsrel::obs
