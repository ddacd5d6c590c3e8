// The single registry of observability probe names: every counter,
// histogram, and trace-span name the library emits lives here and
// nowhere else.
//
// Why a registry instead of string literals at the call sites: probe
// names are rendered into `--metrics` blocks and Perfetto traces that
// downstream tooling greps by exact name, so a silent rename (or two
// subsystems colliding on one name) corrupts dashboards without failing
// a single test. tools/nsrel-lint enforces both halves mechanically:
// the `probe-registry` rule rejects string literals passed directly to
// Registry::counter()/histogram() or obs::Span in src/, and rejects
// duplicate name constants in this header. Tests are exempt (they mint
// throwaway "test.*" names for registry behavior itself).
//
// Span identity is (name, category); categories are the per-subsystem
// kSpanCategory* constants below, and a (name, category) pair appearing
// twice is fine only when it really is the same span emitted from the
// same code path (e.g. kSpanRender from each of the four renderers).
#pragma once

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

inline constexpr const char* kSpanSolve = "solve";
/// CTMC solver spans, each tagged with a "states" arg. The two LU spans
/// also carry a "backend" arg (dense/sparse) showing which factorization
/// the dimension selected; elimination has a single backend.
inline constexpr const char* kSpanEliminationSolve = "elimination_solve";
inline constexpr const char* kSpanAbsorbingSolve = "absorbing_solve";
inline constexpr const char* kSpanStationarySolve = "stationary_solve";
inline constexpr const char* kSpanEvaluate = "evaluate";
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
/// stripe, outcome, retries) and the enclosing run.
inline constexpr const char* kSpanRepairTask = "repair_task";
inline constexpr const char* kSpanRepairRun = "repair_run";

}  // namespace nsrel::obs::probe
