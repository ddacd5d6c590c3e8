// Trace view of the recorder, emitting Chrome/Perfetto `trace_event`
// JSON.
//
// Spans are RAII: construction stamps the start time, destruction
// records one complete ("ph":"X") event into the calling thread's lane.
// A disabled Span costs one relaxed load of the recorder's gate — no
// clock read, no allocation. Lanes are read only when the trace is
// written, after all parallel work has been joined, so recording never
// takes a lock on the hot path.
//
// The output loads directly into chrome://tracing and ui.perfetto.dev:
// a top-level {"traceEvents": [...]} object whose events carry name,
// category, microsecond timestamps relative to begin(), a stable
// per-lane thread id, and the span's typed args. "otherData" embeds the
// build identity (semver, git SHA, compiler, build type) so every trace
// self-identifies the binary it came from.
//
// Span names, categories, arg keys and literal arg values must be
// string literals (records store the pointers).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>

#include "obs/recorder.hpp"

namespace nsrel::obs {

/// The trace channel of the one recorder. Holds no state.
class TraceRecorder {
 public:
  static TraceRecorder& instance() {
    static TraceRecorder view;
    return view;
  }

  /// The probe gate: one relaxed load.
  [[nodiscard]] static bool enabled() { return Recorder::on(kTrace); }

  /// Drops every recorded span, stamps the trace epoch, starts recording.
  void begin() {
    Recorder::instance().clear(kTrace);
    Recorder::instance().enable(kTrace);
  }

  /// Stops recording (recorded spans are kept until clear()).
  void disable() { Recorder::instance().disable(kTrace); }

  /// Writes the trace_event JSON document. Call only after parallel
  /// work has been joined.
  void write(std::ostream& out) const { Recorder::instance().write_trace(out); }

  /// Disables, then write()s to `path`. Returns false when the file
  /// cannot be created or the stream fails.
  [[nodiscard]] bool write_file(const std::string& path);

  /// Drops all recorded spans.
  void clear() { Recorder::instance().clear(kTrace); }
};

/// RAII trace span. Costs one relaxed load when tracing is off. arg()
/// attaches a typed key/value pair (stored only while armed).
class Span {
 public:
  Span(const char* name, const char* category) {
    if (Recorder::on(kTrace)) arm(name, category);
  }
  ~Span() {
    if (record_) finish(*record_);
  }

  [[nodiscard]] bool armed() const { return record_.has_value(); }

  void arg(const char* key, std::uint64_t value) {
    if (record_) record_->arg({key, value});
  }
  void arg(const char* key, const char* value) {
    if (record_) record_->arg({key, value});
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  void arm(const char* name, const char* category);
  static void finish(Record& record);

  std::optional<Record> record_;  ///< engaged = armed
};

}  // namespace nsrel::obs
