#include "engine/engine.hpp"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <future>
#include <stdexcept>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "engine/testing.hpp"
#include "obs/metrics.hpp"
#include "obs/probe_names.hpp"
#include "obs/progress.hpp"
#include "obs/recorder.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"
#include "util/sync.hpp"
#include "util/thread_pool.hpp"

namespace nsrel::engine {

namespace {

util::Mutex fault_mutex;
std::vector<testing::CellFault> registered_faults
    NSREL_GUARDED_BY(fault_mutex);

/// Raises the registered fault the way a real failure of that class
/// would surface from the model stack.
[[noreturn]] void raise_injected(ErrorCode code) {
  switch (code) {
    case ErrorCode::kContractViolation:
      throw ContractViolation("injected fault");
    case ErrorCode::kInternal:
      throw std::runtime_error("injected fault");
    default:
      throw ErrorException(
          Error{code, "engine.testing", "injected fault"});
  }
}

}  // namespace

namespace testing {

void inject_cell_fault(std::size_t point, std::size_t configuration,
                       ErrorCode code) {
  const util::MutexLock lock(fault_mutex);
  registered_faults.push_back({point, configuration, code});
}

void clear_cell_faults() {
  const util::MutexLock lock(fault_mutex);
  registered_faults.clear();
}

std::vector<CellFault> snapshot_cell_faults() {
  const util::MutexLock lock(fault_mutex);
  return registered_faults;
}

}  // namespace testing

OnError parse_on_error(const std::string& name) {
  if (name == "skip") return OnError::kSkip;
  if (name == "fail") return OnError::kFailFast;
  throw ContractViolation("unknown on-error policy '" + name +
                          "' (use skip|fail)");
}

ResultSet::ResultSet(Grid grid, std::vector<Cell> cells,
                     core::SolveCache::Stats cache_stats)
    : grid_(std::move(grid)),
      cells_(std::move(cells)),
      cache_stats_(cache_stats) {
  NSREL_EXPECTS(cells_.size() ==
                grid_.points.size() * grid_.configurations.size());
}

const ResultSet::Cell& ResultSet::cell(std::size_t point,
                                       std::size_t configuration) const {
  NSREL_EXPECTS(point < grid_.points.size());
  NSREL_EXPECTS(configuration < grid_.configurations.size());
  return cells_[point * grid_.configurations.size() + configuration];
}

bool ResultSet::ok(std::size_t point, std::size_t configuration) const {
  return cell(point, configuration).has_value();
}

bool ResultSet::is_sim(std::size_t point, std::size_t configuration) const {
  const Cell& c = cell(point, configuration);
  NSREL_EXPECTS(c.has_value());
  return std::holds_alternative<sim::SimEstimate>(c.value());
}

const core::AnalysisResult& ResultSet::at(std::size_t point,
                                          std::size_t configuration) const {
  const Cell& c = cell(point, configuration);
  NSREL_EXPECTS(c.has_value());
  NSREL_EXPECTS(std::holds_alternative<core::AnalysisResult>(c.value()));
  return std::get<core::AnalysisResult>(c.value());
}

const sim::SimEstimate& ResultSet::sim_at(std::size_t point,
                                          std::size_t configuration) const {
  const Cell& c = cell(point, configuration);
  NSREL_EXPECTS(c.has_value());
  NSREL_EXPECTS(std::holds_alternative<sim::SimEstimate>(c.value()));
  return std::get<sim::SimEstimate>(c.value());
}

std::size_t ResultSet::ok_count() const {
  std::size_t count = 0;
  for (const Cell& c : cells_) count += c.has_value() ? 1 : 0;
  return count;
}

std::vector<CellError> ResultSet::errors() const {
  std::vector<CellError> failed;
  const std::size_t columns = grid_.configurations.size();
  for (std::size_t index = 0; index < cells_.size(); ++index) {
    if (cells_[index].has_value()) continue;
    failed.push_back(
        {index / columns, index % columns, cells_[index].error()});
  }
  return failed;
}

ResultSet evaluate(const Grid& grid, const EvalOptions& options) {
  NSREL_EXPECTS(!grid.points.empty());
  NSREL_EXPECTS(!grid.configurations.empty());
  NSREL_EXPECTS(options.jobs >= 0);

  obs::Span eval_span(obs::probe::kSpanEvaluate,
                      obs::probe::kSpanCategoryEngine);
  eval_span.arg("points", static_cast<std::uint64_t>(grid.points.size()));
  eval_span.arg("configurations",
                static_cast<std::uint64_t>(grid.configurations.size()));
  eval_span.arg("jobs", static_cast<std::uint64_t>(
                            options.jobs < 0 ? 0 : options.jobs));

  const std::size_t columns = grid.configurations.size();
  const std::size_t cell_count = grid.points.size() * columns;
  std::vector<ResultSet::Cell> cells(cell_count);

  core::SolveCache local_cache;
  core::SolveCache* cache = options.cache ? options.cache : &local_cache;

  // One immutable snapshot of the fault registry, taken before any
  // worker starts: workers only read this local copy.
  const std::vector<testing::CellFault> faults =
      testing::snapshot_cell_faults();

  // Under fail-fast a recorded failure stops workers from CLAIMING new
  // cells; cells already claimed always run to completion and record
  // their outcome. Indices are claimed monotonically, so every cell
  // below the first failing index is evaluated at any jobs count —
  // which makes the lowest-indexed failure (the one reported) a pure
  // function of the grid.
  std::atomic<bool> stop{false};
  std::vector<unsigned char> evaluated(cell_count, 0);

  // Each cell writes only its own slot; the slot index is a pure
  // function of the grid, so the filled vector is schedule-independent.
  // Every failure mode — typed errors from the solve stack, violated
  // contracts from a degenerate swept value, any other exception — is
  // captured into the cell instead of escaping the worker.
  const auto evaluate_cell = [&](std::size_t index) {
    const std::size_t point = index / columns;
    const std::size_t configuration = index % columns;
    // Journal scope: cell index + 1 in the high 32 bits. A pure function
    // of the grid, so every event this cell emits (including solve/cache
    // events from the stack below) sorts identically at any --jobs; the
    // low bits are left for per-chunk sequencing inside sim cells.
    const obs::ScopeGuard journal_scope(
        static_cast<std::uint64_t>(index + 1) << 32);
    obs::emit(obs::event::kCellClaim, {{"cell", std::uint64_t{index}},
                                       {"point", std::uint64_t{point}},
                                       {"config", std::uint64_t{configuration}}});
    obs::Span cell_span(obs::probe::kSpanCell, obs::probe::kSpanCategoryEngine);
    cell_span.arg("cell", std::uint64_t{index});
    cell_span.arg("point", std::uint64_t{point});
    cell_span.arg("config", std::uint64_t{configuration});
    ResultSet::Cell outcome = [&]() -> ResultSet::Cell {
      try {
        for (const testing::CellFault& fault : faults) {
          if (fault.point == point && fault.configuration == configuration) {
            raise_injected(fault.code);
          }
        }
        const core::Analyzer analyzer(grid.points[point].system);
        if (grid.simulation.has_value()) {
          // Monte-Carlo cell: bypasses the solve cache entirely (no chain
          // solve happens) and draws from a per-cell seed that is a pure
          // function of the grid. A single-cell grid keeps the caller's
          // intra-cell jobs/progress (the classic `nsrel simulate`
          // shape); multi-cell grids parallelize across cells instead,
          // so each cell runs its trials inline.
          const SimSpec& spec = *grid.simulation;
          sim::ParallelOptions sim_options = spec.options;
          if (cell_count > 1) {
            sim_options.jobs = 1;
            sim_options.progress = nullptr;
          }
          obs::Span sim_span(obs::probe::kSpanSimCell,
                             obs::probe::kSpanCategoryEngine);
          sim::SimEstimate estimate;
          estimate.seed = cell_seed(spec.seed, index);
          if (sim_span.armed()) {
            sim_span.arg("trials", static_cast<std::uint64_t>(spec.trials));
            sim_span.arg("seed", estimate.seed);
          }
          estimate.estimate = analyzer.simulate_mttdl(
              grid.configurations[configuration], spec.trials, estimate.seed,
              sim_options);
          return CellValue{std::move(estimate)};
        }
        Expected<core::AnalysisResult> analyzed =
            analyzer.try_analyze(grid.configurations[configuration],
                                 grid.method, cache);
        if (!analyzed.has_value()) return analyzed.error();
        return CellValue{std::move(analyzed.value())};
      } catch (const ErrorException& e) {
        return e.error();
      } catch (const ContractViolation& e) {
        return Error{ErrorCode::kContractViolation, "engine", e.what()};
      } catch (const std::exception& e) {
        return Error{ErrorCode::kInternal, "engine", e.what()};
      }
    }();
    const bool failed = !outcome.has_value();
    if (failed) {
      const char* code = error_code_name(outcome.error().code);
      cell_span.arg("outcome", code);
      obs::emit(obs::event::kCellFail,
                {{"cell", std::uint64_t{index}}, {"code", code}});
    } else {
      cell_span.arg("outcome", "ok");
      if (obs::Registry::enabled()) {
        auto& registry = obs::Registry::instance();
        registry.add(registry.counter(obs::probe::kEngineCellsOk));
      }
    }
    cells[index] = std::move(outcome);
    evaluated[index] = 1;
    if (failed && options.on_error == OnError::kFailFast) {
      stop.store(true, std::memory_order_relaxed);
    }
    if (options.progress != nullptr) options.progress->step();
  };

  const int jobs =
      options.jobs == 0 ? ThreadPool::hardware_threads() : options.jobs;
  if (jobs <= 1 || cell_count == 1) {
    for (std::size_t index = 0; index < cell_count; ++index) {
      if (stop.load(std::memory_order_relaxed)) break;
      evaluate_cell(index);
    }
  } else {
    std::atomic<std::size_t> next{0};
    const auto worker = [&] {
      obs::Span claim_span(obs::probe::kSpanClaim,
                           obs::probe::kSpanCategoryEngine);
      std::uint64_t claimed = 0;
      for (;;) {
        if (stop.load(std::memory_order_relaxed)) break;
        const std::size_t index = next.fetch_add(1, std::memory_order_relaxed);
        if (index >= cell_count) break;
        ++claimed;
        evaluate_cell(index);
      }
      claim_span.arg("claimed", claimed);
    };
    // Declared after everything the workers touch: the pool destructor
    // joins the workers while their inputs are still alive.
    ThreadPool pool(jobs);
    const std::size_t lanes = std::min<std::size_t>(
        static_cast<std::size_t>(pool.thread_count()), cell_count);
    std::vector<std::future<void>> done;
    done.reserve(lanes);
    for (std::size_t i = 0; i < lanes; ++i) done.push_back(pool.submit(worker));
    for (auto& future : done) future.get();
  }

  if (options.on_error != OnError::kSkip) {
    // The lowest-indexed failure among evaluated cells. Fail-fast and
    // abort agree on it: no cell below it ever fails, and the claiming
    // discipline guarantees it is evaluated under both policies.
    for (std::size_t index = 0; index < cell_count; ++index) {
      if (!evaluated[index] || cells[index].has_value()) continue;
      Error e = cells[index].error();
      e.detail = "cell (point " + std::to_string(index / columns) +
                 ", configuration " + std::to_string(index % columns) +
                 "): " + e.detail;
      throw ErrorException(std::move(e));
    }
  }

  return ResultSet(grid, std::move(cells), cache->stats());
}

}  // namespace nsrel::engine
