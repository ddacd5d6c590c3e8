// highft_sweep: a 2-axis no-internal-RAID grid at node fault tolerance
// 11 (2^(k+1)-1 = 4095 states) through engine::evaluate.
// The axes are restripe-kb (outer) x node-mttf (inner). restripe-kb does
// not enter the NIR chain, so every row after the first hits the solve
// cache: with P node-mttf values, R restripe values and C configurations
// exactly P*C of the P*R*C cells solve at 1 thread. restripe is the outer
// axis so that a key's first solve is claimed a whole row before its
// hits, which keeps worker threads from racing on one key. The seed
// picks which node-mttf and restripe values run, and in which order.
#include <algorithm>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/solve_cache.hpp"
#include "engine/engine.hpp"
#include "engine/grid.hpp"
#include "engine/render.hpp"
#include "report/diff.hpp"
#include "report/resultset_doc.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perf_e2e {

namespace core = nsrel::core;
namespace engine = nsrel::engine;
namespace report = nsrel::report;

namespace {

// The candidate values the seed draws from; the stored reference holds
// the full candidate grid.
const std::vector<double> kNodeMttf{1e5,   1.25e5, 1.5e5, 2e5, 2.5e5, 3e5,
                                    4e5,   5e5,    6e5,   7e5, 8.5e5, 1e6};
const std::vector<double> kRestripeKb{256, 512, 1024, 2048};
constexpr std::size_t kNodeValues = 8;
constexpr std::size_t kRestripeValues = 3;

core::SystemConfig base_system() {
  core::SystemConfig c = core::SystemConfig::baseline();
  c.redundancy_set_size = 16;
  return c;
}

std::vector<core::Configuration> configurations() {
  return {{core::InternalScheme::kNone, 11}};
}

engine::Grid make_grid(const std::vector<double>& restripe,
                       const std::vector<double>& node_mttf) {
  return engine::cartesian_sweep(
      base_system(),
      {{"restripe-kb", restripe, {}}, {"node-mttf", node_mttf, {}}},
      configurations());
}

std::vector<double> pick(const std::vector<double>& candidates,
                         std::size_t count, nsrel::Xoshiro256& rng) {
  std::vector<double> values = candidates;
  for (std::size_t i = values.size(); i > 1; --i) {
    std::swap(values[i - 1], values[rng.below(i)]);
  }
  values.resize(count);
  return values;
}

std::string render(const engine::ResultSet& results) {
  std::ostringstream out;
  engine::sweep_table(results).print(out);
  return out.str();
}

/// The reference cells for `doc`'s points, looked up by point label and
/// configuration name; nullopt when some point is not in the reference.
std::optional<report::ResultSetDoc> expected_from(
    const report::ResultSetDoc& doc, const report::ResultSetDoc& ref) {
  report::ResultSetDoc expected = doc;
  for (report::CellDoc& cell : expected.cells) {
    const auto match = std::find_if(
        ref.cells.begin(), ref.cells.end(), [&](const report::CellDoc& r) {
          return ref.points[r.point].label == doc.points[cell.point].label &&
                 ref.configurations[r.configuration] ==
                     doc.configurations[cell.configuration];
        });
    if (match == ref.cells.end()) return std::nullopt;
    cell.data = match->data;
  }
  return expected;
}

}  // namespace

RunResult run_highft_sweep(const RunConfig& config) {
  RunResult result;
  const std::string ref_path = config.reference_dir + "/highft_sweep.json";
  if (config.write_reference) {
    std::ofstream out(ref_path);
    out << resultset_json(
        evaluate_grid(make_grid(kRestripeKb, kNodeMttf), 1, nullptr));
    result.check(static_cast<bool>(out), "cannot write reference");
    return result;
  }

  nsrel::Xoshiro256 rng(config.seed);
  const std::vector<double> restripe = pick(kRestripeKb, kRestripeValues, rng);
  const std::vector<double> node_mttf = pick(kNodeMttf, kNodeValues, rng);

  // Set-up, repeated: build the grid, load the stored reference and run
  // one warm sweep.
  std::vector<double> setup_s;
  engine::Grid grid;
  std::optional<report::ResultSetDoc> reference;
  for (int rep = 0; rep < 3; ++rep) {
    const double t0 = now_s();
    grid = make_grid(restripe, node_mttf);
    const auto doc = report::read_resultset_json(read_file(ref_path));
    if (doc.has_value()) reference = doc.value();
    core::SolveCache cache;
    (void)evaluate_grid(grid, config.threads, &cache);
    setup_s.push_back(now_s() - t0);
  }
  result.check(reference.has_value(), "highft reference missing");

  const std::size_t cells = grid.points.size() * grid.configurations.size();
  const std::size_t distinct = node_mttf.size() * grid.configurations.size();
  std::string label_list;
  for (const double v : node_mttf) label_list += " " + num(v);
  result.note("inputs: NIR FT11 at R=16, " +
              std::to_string(restripe.size()) + " restripe-kb x " +
              std::to_string(node_mttf.size()) + " node-mttf (h:" +
              label_list + ") = " + std::to_string(cells) + " cells, " +
              std::to_string(distinct) + " distinct chains (1-thread cache hit "
              "share " + num(1.0 - static_cast<double>(distinct) /
                                        static_cast<double>(cells)) + ")");

  // Checks: 1 thread == N threads to the byte, and every cell equals the
  // stored reference's cell under report::diff with zero tolerance.
  std::string expected_table;
  {
    const engine::ResultSet one = evaluate_grid(grid, 1, nullptr);
    const engine::ResultSet many = evaluate_grid(grid, config.threads, nullptr);
    result.check(one.ok_count() == cells, "failed cells at 1 thread");
    result.check(resultset_json(one) == resultset_json(many),
                 "1-thread and N-thread documents differ");
    expected_table = render(one);
    if (reference.has_value()) {
      const report::ResultSetDoc doc = engine::make_document(many, {});
      const auto expected = expected_from(doc, *reference);
      bool same = false;
      if (expected.has_value()) {
        const auto diff = report::diff_resultsets(doc, *expected);
        same = diff.has_value() && diff.value().clean();
      }
      result.check(same, "sweep differs from the stored reference");
    }
  }

  const auto sweep = [&](EngineLayers* layers) {
    core::SolveCache cache;
    const double t0 = now_s();
    const engine::ResultSet results =
        evaluate_grid(grid, config.threads, &cache);
    const double t1 = now_s();
    const std::string table = render(results);
    const double t2 = now_s();
    result.attempted += cells;
    result.failed += cells - results.ok_count();
    if (table != expected_table) {
      ++result.failed;
      result.check(false, "a sweep rendered different output");
    }
    if (layers != nullptr) {
      layers->evaluate_s += t1 - t0;
      layers->render_s += t2 - t1;
      layers->hits += cache.stats().hits;
      layers->lookups += cache.stats().lookups();
    }
  };

  if (!config.trace) {
    const std::vector<double> jobs =
        run_closed_loop(config.seconds, 11, [&](int) { sweep(nullptr); });
    record_end_to_end(result, jobs, setup_s, "one sweep of the grid");
    return result;
  }

  const std::vector<double> plain =
      run_closed_loop(config.seconds / 2, 6, [&](int) { sweep(nullptr); });
  EngineLayers layers;
  begin_trace_capture();
  const std::vector<double> traced = run_closed_loop(
      config.seconds / 2, 6, [&](int) { sweep(&layers); }, false);
  const TraceCapture capture =
      end_trace_capture(result, config.threads, layers.evaluate_s);
  record_engine_layers(result, layers, capture, plain, traced);

  // Layer probes: one chain per configuration stands for the P chains of
  // that configuration a sweep solves (they differ only in rates).
  for (const core::Configuration& c : grid.configurations) {
    const core::Analyzer analyzer(grid.points.front().system);
    probe_chain(analyzer, c, static_cast<double>(node_mttf.size()), 1, result);
  }
  result.note("traced: cache hit share " +
              num(result.metrics["core.cache_hit_ratio"]) + " of " +
              num(result.metrics["core.cache_lookups"]) +
              " lookups per sweep at " + std::to_string(config.threads) +
              " threads");
  return result;
}

}  // namespace perf_e2e
