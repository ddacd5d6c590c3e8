// The four workloads. Each runs in this process with config.threads
// worker threads, closed loop (the next job starts when the previous one
// ends), and fills a RunResult: end-to-end metrics when config.trace is
// off, per-layer metrics when it is on. Every workload's inputs derive
// from config.seed; NOTES.md gives the rationale for each.
#pragma once

#include <cstdint>
#include <string>

#include "core/analyzer.hpp"
#include "core/configuration.hpp"
#include "core/solve_cache.hpp"
#include "engine/engine.hpp"
#include "engine/grid.hpp"
#include "report.hpp"

namespace perf_e2e {

[[nodiscard]] RunResult run_paper_figures(const RunConfig& config);
[[nodiscard]] RunResult run_highft_sweep(const RunConfig& config);
[[nodiscard]] RunResult run_mc_accel(const RunConfig& config);
[[nodiscard]] RunResult run_repair_online(const RunConfig& config);

/// The exact model inputs of one configuration's chain, as bytes: equal
/// keys mean equal chains (the rule core::SolveCache keys by).
[[nodiscard]] std::string chain_key(const nsrel::core::Analyzer& analyzer,
                                    const nsrel::core::Configuration& config);

/// Per-layer probe of one distinct chain: times build_chain, the
/// absorbing solve on the prebuilt chain, an uncached try_analyze and the
/// rebuild planner (median of `reps` calls each), and adds them to
/// `result` under the models./ctmc./core./rebuild. names, multiplied by
/// `weight`: the number of chains like this one that a job solves.
void probe_chain(const nsrel::core::Analyzer& analyzer,
                 const nsrel::core::Configuration& config, double weight,
                 int reps, RunResult& result);

// --- shared by the analytic workloads (analytic.cpp) -------------------

/// engine::evaluate with `jobs` workers, the given cache (null = private)
/// and failures kept in their cells.
[[nodiscard]] nsrel::engine::ResultSet evaluate_grid(
    const nsrel::engine::Grid& grid, int jobs, nsrel::core::SolveCache* cache);

/// The nsrel-resultset-v3 document of a result set.
[[nodiscard]] std::string resultset_json(
    const nsrel::engine::ResultSet& results);

/// A file's bytes, or "" when it cannot be read.
[[nodiscard]] std::string read_file(const std::string& path);

/// Engine-level layer time a traced analytic phase accumulates.
struct EngineLayers {
  double evaluate_s = 0.0;
  double render_s = 0.0;
  std::uint64_t hits = 0;
  std::uint64_t lookups = 0;
};

/// Fills engine.*, core.cache_* and ctmc.elimination_ms per job, and
/// the trace.* metrics with evaluate and render as the layers.
void record_engine_layers(RunResult& result, const EngineLayers& layers,
                          const TraceCapture& capture,
                          const std::vector<double>& plain_s,
                          const std::vector<double>& traced_s);

}  // namespace perf_e2e
