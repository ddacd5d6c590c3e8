// Journal view of the recorder: the flight recorder of typed structured
// events — the machine-readable record of *what happened* during a run,
// complementing the counters' aggregates and the trace's wall-clock
// spans. Events are emitted with obs::emit()/emit_at() (recorder.hpp)
// using names from probe_names.hpp; the journal is complete (nothing is
// ever overwritten or dropped) and deterministic at any --jobs.
#pragma once

#include <vector>

#include "obs/recorder.hpp"

namespace nsrel::obs {

/// The journal channel of the one recorder. Holds no state.
class Journal {
 public:
  static Journal& instance() {
    static Journal view;
    return view;
  }

  /// The probe gate: one relaxed load. All recording no-ops when off.
  [[nodiscard]] static bool enabled() { return Recorder::on(kJournal); }

  /// Drops every recorded event and starts recording. Call before
  /// spawning parallel work.
  void begin() {
    Recorder::instance().clear(kJournal);
    Recorder::instance().enable(kJournal);
  }

  /// Stops recording. Recorded events survive until the next
  /// begin()/clear(), so a journal can be exported after disable.
  void disable() { Recorder::instance().disable(kJournal); }

  /// Drops all recorded events.
  void clear() { Recorder::instance().clear(kJournal); }

  /// Every event, stable-sorted by sequence scope. Call after the
  /// recording work has been joined; deterministic at any --jobs.
  [[nodiscard]] std::vector<Record> events() const {
    return Recorder::instance().journal();
  }
};

}  // namespace nsrel::obs
