// The single registry of observability names: every counter, histogram,
// trace span and journal event the library emits is declared here and
// nowhere else.
//
// Why a registry instead of string literals at the call sites: these
// names are rendered into `--metrics` blocks, Perfetto traces and
// nsrel-events-v1 journals that downstream tooling (`nsrel events`,
// `nsrel report`, dashboards) greps by exact name, so a silent rename
// or two instruments colliding on one name corrupts analyses without
// failing a single test. tools/nsrel-lint's `name-registry` rule
// enforces this mechanically: it rejects string literals passed to
// Registry::counter()/histogram(), obs::Span or obs::emit()/emit_at()
// in src/, rejects any string declared twice in this header (metric,
// span and event names alike), and pins the journal events append-only
// against tools/lint/event_names.tsv — renaming, reordering or deleting
// a shipped event is a lint failure, exactly like error codes. Tests
// are exempt from the literal rule (they mint throwaway "test.*" names).
//
// Span identity is (name, category); categories are the per-subsystem
// kSpanCategory* constants below, and a (name, category) pair appearing
// twice is fine only when it really is the same span emitted from the
// same code path (e.g. kSpanRender from each of the four renderers).
#pragma once

namespace nsrel::obs {

/// A journal event and the counter that the same obs::emit() call bumps
/// when metrics are on — one declaration, one call, for one fact.
struct EventName {
  const char* name;
  const char* counter = nullptr;  ///< paired counter, or none
};

}  // namespace nsrel::obs

namespace nsrel::obs::probe {

// --- counters ---------------------------------------------------------
inline constexpr const char* kThreadPoolSubmitted = "thread_pool.submitted";
inline constexpr const char* kThreadPoolCompleted = "thread_pool.completed";
inline constexpr const char* kSolveCacheHits = "solve_cache.hits";
inline constexpr const char* kSolveCacheMisses = "solve_cache.misses";
inline constexpr const char* kSolveCacheInserts = "solve_cache.inserts";
inline constexpr const char* kEngineCellsOk = "engine.cells_ok";
inline constexpr const char* kEngineCellsFailed = "engine.cells_failed";
/// Chains compared by the differential-testing harness
/// (tests/test_diffharness.cpp; registered here so dashboards that grep
/// harness runs share the one name registry).
inline constexpr const char* kDiffHarnessChains = "diffharness.chains";
/// Brick-store degraded reads: read()/read_range() calls that had to
/// fetch k survivors and decode instead of reading the shard directly.
inline constexpr const char* kBrickDegradedReads = "brick.degraded_reads";
// Concurrent repair engine (src/repair).
inline constexpr const char* kRepairShardsRepaired = "repair.shards_repaired";
inline constexpr const char* kRepairReplans = "repair.replans";
inline constexpr const char* kRepairRetries = "repair.retries";
inline constexpr const char* kRepairInjectedFaults = "repair.injected_faults";
inline constexpr const char* kRepairStripesFailed = "repair.stripes_failed";
/// Per-worker busy-time counters are the one dynamic name family:
/// "<prefix><index><suffix>", e.g. "thread_pool.worker3.busy_ns".
inline constexpr const char* kThreadPoolWorkerPrefix = "thread_pool.worker";
inline constexpr const char* kThreadPoolWorkerBusySuffix = ".busy_ns";

// --- histograms -------------------------------------------------------
inline constexpr const char* kThreadPoolQueueDepth = "thread_pool.queue_depth";
inline constexpr const char* kThreadPoolQueueDelayNs =
    "thread_pool.queue_delay_ns";
inline constexpr const char* kThreadPoolTaskNs = "thread_pool.task_ns";
inline constexpr const char* kSolveCacheInsertNs = "solve_cache.insert_ns";
inline constexpr const char* kCoreSolveNs = "core.solve_ns";

// --- trace spans (name, category) -------------------------------------
inline constexpr const char* kSpanCategoryCore = "core";
inline constexpr const char* kSpanCategoryEngine = "engine";
inline constexpr const char* kSpanCategorySim = "sim";
inline constexpr const char* kSpanCategoryCtmc = "ctmc";
inline constexpr const char* kSpanCategoryReport = "report";
inline constexpr const char* kSpanCategoryRepair = "repair";
inline constexpr const char* kSpanCategoryModels = "models";

inline constexpr const char* kSpanSolve = "solve";
/// CTMC solver spans, each tagged with a "states" arg. Each solve has a
/// single backend (sparse GTH elimination, sparse LU), so no span names
/// one.
inline constexpr const char* kSpanEliminationSolve = "elimination_solve";
inline constexpr const char* kSpanAbsorbingSolve = "absorbing_solve";
inline constexpr const char* kSpanStationarySolve = "stationary_solve";
/// A model's Markov-chain assembly, NoInternalRaidModel::chain() or
/// InternalRaidNodeModel::chain() (args: states, transitions).
inline constexpr const char* kSpanChainBuild = "chain_build";
inline constexpr const char* kSpanEvaluate = "evaluate";
/// One engine grid cell (args: cell, point, config = configuration
/// index, outcome).
inline constexpr const char* kSpanCell = "cell";
/// A Monte-Carlo grid cell: wraps the sim::run_trials call for one
/// (point, configuration) slot when the grid carries a SimSpec.
inline constexpr const char* kSpanSimCell = "sim_cell";
inline constexpr const char* kSpanClaim = "claim";
inline constexpr const char* kSpanRender = "render";
inline constexpr const char* kSpanChunk = "chunk";
/// Strict nsrel-resultset-v3 document read (report::read_resultset_json).
inline constexpr const char* kSpanResultSetRead = "resultset_read";
/// ResultSet document comparison (report::diff_resultsets / nsrel diff).
inline constexpr const char* kSpanDiff = "diff";
/// One per-stripe repair task executed by repair::run_repair (args:
/// object, stripe, outcome, retries) and the enclosing run.
inline constexpr const char* kSpanRepairTask = "repair_task";
inline constexpr const char* kSpanRepairRun = "repair_run";

}  // namespace nsrel::obs::probe

// --- journal events ---------------------------------------------------
// Declaration order is frozen by tools/lint/event_names.tsv: append new
// events at the end (and a row there), never reorder or rename.
namespace nsrel::obs::event {

/// Cache-keyed CTMC solve began (no args).
inline constexpr EventName kSolveStart{"solve.start"};
/// ...and finished (args: outcome = ok|<stable error code>).
inline constexpr EventName kSolveEnd{"solve.end"};
/// Solve-cache lookup classified (no args; the enclosing scope says
/// which cell asked).
inline constexpr EventName kCacheHit{"cache.hit", probe::kSolveCacheHits};
inline constexpr EventName kCacheMiss{"cache.miss", probe::kSolveCacheMisses};
/// Engine grid cell claimed by a worker (args: cell, point, config).
inline constexpr EventName kCellClaim{"cell.claim"};
/// ...and failed with a typed error (args: cell, code).
inline constexpr EventName kCellFail{"cell.fail", probe::kEngineCellsFailed};
/// One Monte-Carlo chunk completed (args: stream, trials).
inline constexpr EventName kSimChunk{"sim.chunk"};
/// Repair batch barrier reached (sim-time domain; args: batch,
/// committed).
inline constexpr EventName kRepairBarrier{"repair.barrier"};
/// Fault-schedule entry fired (args: node, drive, applied = 0|1 —
/// no-op entries are recorded too, they still forced a barrier). Not
/// paired: repair.injected_faults counts only the applied ones.
inline constexpr EventName kRepairFault{"repair.fault"};
/// Re-plan after an applied fault (args: invalidated = pending stripes
/// sent back to planning; repair.replans sums these).
inline constexpr EventName kRepairReplan{"repair.replan",
                                         probe::kRepairReplans};
/// A failed stripe re-queued (args: object, stripe, retries).
inline constexpr EventName kRepairRetry{"repair.retry", probe::kRepairRetries};
/// Brick-store read served by decode instead of a direct shard read
/// (no args; during repair the enclosing barrier scope locates it).
inline constexpr EventName kBrickDegradedRead{"brick.degraded_read",
                                              probe::kBrickDegradedReads};
/// Foreground workload read that returned a typed error — during a
/// repair run this is a read that found too few live shards (no args;
/// scoped to the barrier that served it).
inline constexpr EventName kWorkloadReadFailed{"workload.read_failed"};

}  // namespace nsrel::obs::event
