// paper_figures: the grids behind Figs 13-20 plus the 9-configuration
// compare at the section-6 baseline, evaluated and rendered in-process
// through engine::evaluate. One job is a pass over every figure; each
// figure gets a fresh SolveCache, as each fig* binary has its own. The
// seed shuffles the figure order of every pass.
#include <algorithm>
#include <fstream>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/solve_cache.hpp"
#include "engine/engine.hpp"
#include "engine/grid.hpp"
#include "engine/render.hpp"
#include "report/diff.hpp"
#include "report/resultset_doc.hpp"
#include "util/format.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"
#include "workloads.hpp"

namespace perf_e2e {

namespace core = nsrel::core;
namespace engine = nsrel::engine;
using nsrel::Hours;

namespace {

struct Figure {
  std::string name;
  std::vector<engine::Grid> grids;
};

core::SystemConfig baseline() { return core::SystemConfig::baseline(); }

engine::Grid sweep(const std::string& axis, const std::vector<double>& xs,
                   const std::function<core::SystemConfig(double)>& make,
                   std::vector<core::Configuration> configurations =
                       core::sensitivity_configurations()) {
  return engine::custom_sweep(axis, xs, make, std::move(configurations),
                              core::Method::kExactChain);
}

/// The grids the fig13..fig20 binaries and `nsrel compare` evaluate.
std::vector<Figure> paper_figures() {
  std::vector<Figure> figures;
  figures.push_back({"fig13", {engine::single_point(
                                  baseline(), core::all_configurations())}});

  Figure fig14{"fig14", {}};
  for (const double node : {100e3, 1000e3}) {
    fig14.grids.push_back(sweep(
        "drive MTTF (h)", {100e3, 200e3, 300e3, 500e3, 750e3},
        [node](double x) {
          core::SystemConfig c = baseline();
          c.node_mttf = Hours(node);
          c.drive.mttf = Hours(x);
          return c;
        }));
  }
  figures.push_back(std::move(fig14));

  Figure fig15{"fig15", {}};
  const auto node_mttf = [](double drive) {
    return [drive](double x) {
      core::SystemConfig c = baseline();
      c.drive.mttf = Hours(drive);
      c.node_mttf = Hours(x);
      return c;
    };
  };
  for (const double drive : {100e3, 750e3}) {
    fig15.grids.push_back(sweep("node MTTF (h)",
                                {100e3, 200e3, 400e3, 700e3, 1000e3},
                                node_mttf(drive)));
  }
  fig15.grids.push_back(sweep("node MTTF (h)", {100e3, 1000e3},
                              node_mttf(750e3)));
  figures.push_back(std::move(fig15));

  const std::vector<double> block_kib{4, 8, 16, 32, 64, 128, 256, 512, 1024};
  figures.push_back(
      {"fig16",
       {sweep("rebuild block", block_kib,
              [](double x) {
                core::SystemConfig c = baseline();
                c.rebuild_command = nsrel::kilobytes(x);
                return c;
              }),
        sweep("rebuild block", block_kib, [](double x) {
          core::SystemConfig c = baseline();
          c.rebuild_command = nsrel::kilobytes(x);
          c.restripe_command = nsrel::kilobytes(8.0 * x);
          return c;
        })}});

  figures.push_back(
      {"fig17", {sweep("link speed", {1, 2, 3, 4, 5, 10}, [](double x) {
         core::SystemConfig c = baseline();
         c.link.raw_speed = nsrel::gigabits_per_second(x);
         return c;
       })}});

  figures.push_back(
      {"fig18", {sweep("node set size", {16, 32, 64, 128, 256}, [](double x) {
         core::SystemConfig c = baseline();
         c.node_set_size = static_cast<int>(x);
         return c;
       })}});

  figures.push_back(
      {"fig19",
       {sweep("redundancy set size", {4, 6, 8, 10, 12, 16},
              [](double x) {
                core::SystemConfig c = baseline();
                c.redundancy_set_size = static_cast<int>(x);
                return c;
              }),
        engine::parameter_sweep(baseline(), "r", {4, 16},
                                core::sensitivity_configurations())}});

  const std::vector<double> drives{4, 6, 8, 12, 16, 24};
  figures.push_back(
      {"fig20",
       {sweep("drives per node", drives,
              [](double x) {
                core::SystemConfig c = baseline();
                c.drives_per_node = static_cast<int>(x);
                return c;
              }),
        engine::parameter_sweep(baseline(), "d", drives,
                                {{core::InternalScheme::kNone, 2}})}});

  figures.push_back({"compare", {engine::single_point(
                                    baseline(), core::all_configurations())}});
  return figures;
}

std::string grid_id(const Figure& figure, std::size_t index) {
  return figure.name + "." + std::to_string(index);
}

std::string render(const engine::ResultSet& results) {
  static const core::ReliabilityTarget target =
      core::ReliabilityTarget::paper();
  std::ostringstream out;
  if (results.point_count() == 1 && !results.grid().has_axis()) {
    engine::compare_table(results, target).print(out);
  } else {
    engine::events_table(results, &target).print(out);
  }
  return out.str();
}

}  // namespace

RunResult run_paper_figures(const RunConfig& config) {
  RunResult result;
  const std::string ref_dir = config.reference_dir + "/paper_figures/";

  if (config.write_reference) {
    for (const Figure& figure : paper_figures()) {
      for (std::size_t g = 0; g < figure.grids.size(); ++g) {
        std::ofstream out(ref_dir + grid_id(figure, g) + ".json");
        out << resultset_json(evaluate_grid(figure.grids[g], 1, nullptr));
        result.check(static_cast<bool>(out), "cannot write reference");
      }
    }
    return result;
  }

  // Set-up, repeated: build every grid, load the stored reference
  // documents and run one warm pass.
  std::vector<double> setup_s;
  std::vector<Figure> figures;
  std::vector<std::vector<std::string>> expected;  // rendered, per grid
  std::vector<std::vector<std::optional<nsrel::report::ResultSetDoc>>>
      references;
  for (int rep = 0; rep < 7; ++rep) {
    const double t0 = now_s();
    figures = paper_figures();
    expected.assign(figures.size(), {});
    references.assign(figures.size(), {});
    for (std::size_t f = 0; f < figures.size(); ++f) {
      core::SolveCache cache;
      for (std::size_t g = 0; g < figures[f].grids.size(); ++g) {
        auto doc = nsrel::report::read_resultset_json(
            read_file(ref_dir + grid_id(figures[f], g) + ".json"));
        references[f].push_back(doc.has_value() ? std::optional(doc.value())
                                                : std::nullopt);
        expected[f].push_back(render(
            evaluate_grid(figures[f].grids[g], config.threads, &cache)));
      }
    }
    setup_s.push_back(now_s() - t0);
  }

  // Checks: 1 thread == N threads to the byte, and both match the stored
  // reference under report::diff with zero tolerance.
  std::size_t cells_per_pass = 0;
  std::size_t grid_count = 0;
  for (std::size_t f = 0; f < figures.size(); ++f) {
    for (std::size_t g = 0; g < figures[f].grids.size(); ++g) {
      const std::string id = grid_id(figures[f], g);
      const engine::ResultSet one =
          evaluate_grid(figures[f].grids[g], 1, nullptr);
      const engine::ResultSet many =
          evaluate_grid(figures[f].grids[g], config.threads, nullptr);
      cells_per_pass += one.point_count() * one.configuration_count();
      ++grid_count;
      result.check(one.ok_count() ==
                       one.point_count() * one.configuration_count(),
                   id + ": failed cells");
      result.check(resultset_json(one) == resultset_json(many),
                   id + ": 1-thread and " + std::to_string(config.threads) +
                       "-thread documents differ");
      const auto& ref = references[f][g];
      if (!ref.has_value()) {
        result.check(false, id + ": reference missing or unreadable");
        continue;
      }
      const auto diff = nsrel::report::diff_resultsets(
          engine::make_document(many, {}), *ref);
      result.check(diff.has_value() && diff.value().clean(),
                   id + ": differs from the stored reference");
    }
  }

  nsrel::Xoshiro256 rng(config.seed);
  std::vector<std::size_t> order(figures.size());
  const auto pass = [&](EngineLayers* layers) {
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.below(i)]);
    }
    for (const std::size_t f : order) {
      core::SolveCache cache;
      for (std::size_t g = 0; g < figures[f].grids.size(); ++g) {
        const double t0 = now_s();
        const engine::ResultSet results =
            evaluate_grid(figures[f].grids[g], config.threads, &cache);
        const double t1 = now_s();
        const std::string text = render(results);
        const double t2 = now_s();
        const std::size_t cells =
            results.point_count() * results.configuration_count();
        result.attempted += cells;
        result.failed += cells - results.ok_count();
        if (text != expected[f][g]) {
          ++result.failed;
          result.check(false, grid_id(figures[f], g) +
                                  ": a pass rendered different output");
        }
        if (layers != nullptr) {
          layers->evaluate_s += t1 - t0;
          layers->render_s += t2 - t1;
        }
      }
      if (layers != nullptr) {
        const core::SolveCache::Stats stats = cache.stats();
        layers->hits += stats.hits;
        layers->lookups += stats.lookups();
      }
    }
  };

  result.note("inputs: " + std::to_string(figures.size()) + " figures, " +
              std::to_string(grid_count) + " grids, " +
              std::to_string(cells_per_pass) +
              " cells per pass; figure order shuffled per pass from the seed");

  if (!config.trace) {
    const std::vector<double> jobs = run_closed_loop(
        config.seconds, 20, [&](int) { pass(nullptr); });
    record_end_to_end(result, jobs, setup_s, "one pass over every figure");
    return result;
  }

  // Traced run: the first half untraced (the overhead base), the second
  // half with spans, pool metrics and the benchmark's own layer timers.
  const std::vector<double> plain = run_closed_loop(
      config.seconds / 2, 20, [&](int) { pass(nullptr); });
  EngineLayers layers;
  begin_trace_capture();
  const std::vector<double> traced = run_closed_loop(
      config.seconds / 2, 20, [&](int) { pass(&layers); }, false);
  const TraceCapture capture =
      end_trace_capture(result, config.threads, layers.evaluate_s);
  record_engine_layers(result, layers, capture, plain, traced);

  // Layer probes: every distinct chain a pass solves (one per figure and
  // cache key), timed directly below the engine.
  std::size_t distinct = 0;
  for (const Figure& figure : figures) {
    std::vector<std::string> seen;
    for (const engine::Grid& grid : figure.grids) {
      for (const engine::GridPoint& point : grid.points) {
        const core::Analyzer analyzer(point.system);
        for (const core::Configuration& c : grid.configurations) {
          std::string key = chain_key(analyzer, c);
          if (std::find(seen.begin(), seen.end(), key) != seen.end()) continue;
          seen.push_back(std::move(key));
          probe_chain(analyzer, c, 1.0, 3, result);
          ++distinct;
        }
      }
    }
  }
  result.note("traced: " + std::to_string(distinct) +
              " distinct chains per pass probed; cache hit share " +
              num(result.metrics["core.cache_hit_ratio"]) + " of " +
              num(result.metrics["core.cache_lookups"]) + " lookups per pass");
  return result;
}

}  // namespace perf_e2e
