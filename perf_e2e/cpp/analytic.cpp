#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/solve_cache.hpp"
#include "ctmc/absorbing.hpp"
#include "engine/render.hpp"
#include "workloads.hpp"

namespace perf_e2e {

namespace core = nsrel::core;

std::string chain_key(const core::Analyzer& analyzer,
                      const core::Configuration& config) {
  std::string key = core::name(config);
  if (config.internal == core::InternalScheme::kNone) {
    const auto p = analyzer.nir_params(config);
    for (const int v : {p.node_set_size, p.redundancy_set_size,
                        p.fault_tolerance, p.drives_per_node}) {
      core::append_key_bytes(key, v);
    }
    for (const double v :
         {p.node_failure.value(), p.drive_failure.value(),
          p.node_rebuild.value(), p.drive_rebuild.value(),
          p.capacity.value(), p.her_per_byte}) {
      core::append_key_bytes(key, v);
    }
  } else {
    const auto p = analyzer.ir_params(config);
    for (const int v :
         {p.node_set_size, p.redundancy_set_size, p.fault_tolerance}) {
      core::append_key_bytes(key, v);
    }
    for (const double v : {p.node_failure.value(), p.node_rebuild.value(),
                           p.array_failure.value(), p.sector_error.value()}) {
      core::append_key_bytes(key, v);
    }
  }
  return key;
}

namespace {

/// Median of `reps` timed calls, in seconds.
template <typename F>
double timed(int reps, F&& f) {
  std::vector<double> times;
  for (int i = 0; i < reps; ++i) {
    const double t0 = now_s();
    f();
    times.push_back(now_s() - t0);
  }
  return median(times);
}

}  // namespace

void probe_chain(const core::Analyzer& analyzer,
                 const core::Configuration& config, double weight, int reps,
                 RunResult& result) {
  core::Analyzer::BuiltChain built;
  const double build_s =
      timed(reps, [&] { built = analyzer.build_chain(config); });
  double mttdl = 0.0;
  const double solve_s = timed(reps, [&] {
    mttdl = nsrel::ctmc::AbsorbingSolver::mttdl_hours(built.chain,
                                                      built.healthy);
  });
  bool analyzed = true;
  const double analyze_s = timed(reps, [&] {
    analyzed = analyzer.try_analyze(config).has_value() && analyzed;
  });
  const double rates_s = timed(reps, [&] {
    (void)analyzer.planner(config.node_fault_tolerance).rates();
  });
  result.check(analyzed && mttdl > 0.0,
               "layer probe failed for " + core::name(config));
  result.metrics["models.chain_build_ms"] += weight * 1e3 * build_s;
  result.metrics["models.chain_states"] +=
      weight * static_cast<double>(built.chain.state_count());
  result.metrics["models.chain_transitions"] +=
      weight * static_cast<double>(built.chain.transitions().size());
  result.metrics["ctmc.solve_ms"] += weight * 1e3 * solve_s;
  result.metrics["core.analyze_ms"] += weight * 1e3 * analyze_s;
  result.metrics["rebuild.rates_us"] += weight * 1e6 * rates_s;
}

nsrel::engine::ResultSet evaluate_grid(const nsrel::engine::Grid& grid,
                                       int jobs, core::SolveCache* cache) {
  nsrel::engine::EvalOptions options;
  options.jobs = jobs;
  options.cache = cache;
  options.on_error = nsrel::engine::OnError::kSkip;
  return nsrel::engine::evaluate(grid, options);
}

std::string resultset_json(const nsrel::engine::ResultSet& results) {
  std::ostringstream out;
  nsrel::engine::write_json(results, out);
  return out.str();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return in ? out.str() : std::string();
}

void record_engine_layers(RunResult& result, const EngineLayers& layers,
                          const TraceCapture& capture,
                          const std::vector<double>& plain_s,
                          const std::vector<double>& traced_s) {
  const double jobs = static_cast<double>(traced_s.size());
  auto& m = result.metrics;
  m["engine.evaluate_ms"] = 1e3 * layers.evaluate_s / jobs;
  m["engine.render_ms"] = 1e3 * layers.render_s / jobs;
  m["core.cache_lookups"] = static_cast<double>(layers.lookups) / jobs;
  m["core.cache_hit_ratio"] = static_cast<double>(layers.hits) /
                              static_cast<double>(layers.lookups);
  m["ctmc.elimination_ms"] =
      capture.spans.total_ms("elimination_solve") / jobs;
  record_trace(result, plain_s, traced_s,
               {layers.evaluate_s, layers.render_s});
}

}  // namespace perf_e2e
