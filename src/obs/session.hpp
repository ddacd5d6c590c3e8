// Per-command observability scope: the CLI's `--trace FILE`,
// `--metrics`, `--metrics-out FILE` and `--events FILE` flags, and a
// scenario's `[output] trace =` / `events =` keys, map to one Session
// around the work. The constructor clears and enables the requested
// recorder channels; finish() disables them, writes the trace file and
// prints the metrics block (to stderr — stdout stays byte-identical
// with observability on or off). Document files (events NDJSON,
// metrics JSON) are written by the caller after finish() —
// serialization lives in src/report, which layers above obs — for the
// channels the session owns().
//
// Sessions nest: a channel already on when a session starts belongs to
// the enclosing session, so the inner one neither restarts it nor
// writes its file. That is how the CLI's flags win over a scenario
// file's [output] keys.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

namespace nsrel::obs {

class Session {
 public:
  struct Options {
    std::string trace_path;  ///< empty = no tracing
    bool metrics = false;    ///< print the metrics block at finish()
    bool registry = false;   ///< record metrics without the block
                             ///< (--metrics-out without --metrics)
    bool journal = false;    ///< record journal events (--events)
  };

  explicit Session(Options options);

  /// Disables the owned channels without writing anything if finish()
  /// was never called (exception escape path — the trace is lost).
  ~Session();

  /// Disables the owned channels, writes the trace file and the metrics
  /// block to `err` if requested and owned. Returns false when the
  /// trace file cannot be written (a message is printed to `err`).
  /// Idempotent.
  bool finish(std::ostream& err);

  /// True when this session started `channel` (an obs::Channel bit).
  [[nodiscard]] bool owns(std::uint32_t channel) const {
    return (owned_ & channel) != 0;
  }

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

 private:
  Options options_;
  std::uint32_t owned_ = 0;
  bool finished_ = false;
};

}  // namespace nsrel::obs
