// The single registry of flight-recorder event names: every structured
// event type the journal records lives here and nowhere else.
//
// Same contract as probe_names.hpp: event names are rendered into
// `nsrel-events-v1` documents that downstream tooling (`nsrel events`,
// `nsrel report`, future `nsreld` consumers) greps by exact name, so a
// silent rename or a collision corrupts analyses without failing a
// test. tools/nsrel-lint enforces this mechanically: the
// `event-registry` rule rejects string literals passed directly to
// obs::seq_event()/obs::sim_event() in src/, rejects duplicate
// constants here (including collisions with probe_names.hpp), and pins
// the names append-only against tools/lint/event_names.tsv — renaming
// or deleting a shipped event name is a lint failure, exactly like
// error codes.
#pragma once

namespace nsrel::obs::event {

/// Cache-keyed CTMC solve began (no args).
inline constexpr const char* kSolveStart = "solve.start";
/// ...and finished (args: outcome = ok|<stable error code>).
inline constexpr const char* kSolveEnd = "solve.end";
/// Solve-cache lookup classified (no args; the enclosing scope says
/// which cell asked).
inline constexpr const char* kCacheHit = "cache.hit";
inline constexpr const char* kCacheMiss = "cache.miss";
/// Engine grid cell claimed by a worker (args: cell, point, config).
inline constexpr const char* kCellClaim = "cell.claim";
/// ...and failed with a typed error (args: cell, code).
inline constexpr const char* kCellFail = "cell.fail";
/// One Monte-Carlo chunk completed (args: stream, trials).
inline constexpr const char* kSimChunk = "sim.chunk";
/// Repair batch barrier reached (sim-time domain; args: batch,
/// committed).
inline constexpr const char* kRepairBarrier = "repair.barrier";
/// Fault-schedule entry fired (args: node, drive, applied = 0|1 —
/// no-op entries are recorded too, they still forced a barrier).
inline constexpr const char* kRepairFault = "repair.fault";
/// Re-plan after an applied fault (args: invalidated = pending stripes
/// sent back to planning; the run's replans counter sums these).
inline constexpr const char* kRepairReplan = "repair.replan";
/// A failed stripe re-queued (args: object, stripe, retries).
inline constexpr const char* kRepairRetry = "repair.retry";
/// Brick-store read served by decode instead of a direct shard read
/// (no args; during repair the enclosing barrier scope locates it).
inline constexpr const char* kBrickDegradedRead = "brick.degraded_read";
/// Foreground workload read that returned a typed error — during a
/// repair run this is a read that found too few live shards (no args;
/// scoped to the barrier that served it).
inline constexpr const char* kWorkloadReadFailed = "workload.read_failed";

}  // namespace nsrel::obs::event
