#include "core/analyzer.hpp"

#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/probe_names.hpp"
#include "obs/recorder.hpp"
#include "obs/trace.hpp"
#include "raid/array_model.hpp"
#include "sim/storage_simulator.hpp"
#include "util/assert.hpp"

namespace nsrel::core {

namespace {

/// Cache keys are the exact bytes of every input the chain solve depends
/// on: a one-byte family/method tag followed by the model parameters.
/// Bitwise-equal keys imply bitwise-equal solves.
std::string nir_solve_key(const models::NoInternalRaidParams& p,
                          Method method) {
  std::string key;
  key.reserve(3 + 4 * sizeof(int) + 6 * sizeof(double));
  key.push_back('N');
  key.push_back(static_cast<char>(method));
  key.push_back(static_cast<char>(p.repair_policy));
  append_key_bytes(key, p.node_set_size);
  append_key_bytes(key, p.redundancy_set_size);
  append_key_bytes(key, p.fault_tolerance);
  append_key_bytes(key, p.drives_per_node);
  append_key_bytes(key, p.node_failure.value());
  append_key_bytes(key, p.drive_failure.value());
  append_key_bytes(key, p.node_rebuild.value());
  append_key_bytes(key, p.drive_rebuild.value());
  append_key_bytes(key, p.capacity.value());
  append_key_bytes(key, p.her_per_byte);
  return key;
}

std::string ir_solve_key(const models::InternalRaidParams& p, Method method) {
  std::string key;
  key.reserve(3 + 3 * sizeof(int) + 4 * sizeof(double));
  key.push_back('I');
  key.push_back(static_cast<char>(method));
  key.push_back(static_cast<char>(p.repair_policy));
  append_key_bytes(key, p.node_set_size);
  append_key_bytes(key, p.redundancy_set_size);
  append_key_bytes(key, p.fault_tolerance);
  append_key_bytes(key, p.node_failure.value());
  append_key_bytes(key, p.node_rebuild.value());
  append_key_bytes(key, p.array_failure.value());
  append_key_bytes(key, p.sector_error.value());
  return key;
}

/// Runs `solve` with memoization when a cache is supplied. Exceptions
/// from the solve are converted to typed errors and cached exactly like
/// values, so a hit on a known-bad key replays the original error
/// without re-running the failing solve.
template <typename Solve>
[[nodiscard]] Expected<double> cached_solve(SolveCache* cache,
                                            const std::string& key,
                                            Solve solve) {
  obs::Span span(obs::probe::kSpanSolve, obs::probe::kSpanCategoryCore);
  obs::emit(obs::event::kSolveStart);
  // Brackets every exit below so hit and computed outcomes journal alike.
  const auto journal_end = [&](const Expected<double>& outcome) {
    obs::emit(obs::event::kSolveEnd,
              {{"outcome", outcome.has_value()
                               ? "ok"
                               : error_code_name(outcome.error().code)}});
  };
  const auto guarded = [&]() -> Expected<double> {
    const obs::ScopedTimer timer(
        obs::Registry::enabled()
            ? obs::Registry::instance().histogram(obs::probe::kCoreSolveNs)
            : obs::Histogram{});
    try {
      return solve().value();
    } catch (const ErrorException& e) {
      return e.error();
    } catch (const ContractViolation& e) {
      return Error{ErrorCode::kContractViolation, "core.analyzer", e.what()};
    }
  };
  if (cache == nullptr) {
    span.arg("cache", "none");
    Expected<double> outcome = guarded();
    journal_end(outcome);
    return outcome;
  }
  if (auto hit = cache->lookup(key)) {
    span.arg("cache", "hit");
    journal_end(*hit);
    return *std::move(hit);
  }
  span.arg("cache", "miss");
  Expected<double> outcome = guarded();
  cache->store(key, outcome);
  journal_end(outcome);
  return outcome;
}

/// The one fault-tolerance check of the try_* paths: k >= 1, k below the
/// redundancy set size, and k <= 16 without internal RAID (the
/// NoInternalRaidModel cap: that chain has 2^(k+1) states). A typed
/// error, not a contract violation: k comes from user input (a flag or
/// a sweep axis), not from a caller bug.
std::optional<Error> check_fault_tolerance(const Configuration& configuration,
                                           int redundancy_set_size) {
  const int k = configuration.node_fault_tolerance;
  if (k < 1 || k >= redundancy_set_size) {
    return Error{ErrorCode::kInvalidParameter, "core.analyzer",
                 "node fault tolerance must be >= 1 and below the "
                 "redundancy set size"};
  }
  if (configuration.internal == InternalScheme::kNone && k > 16) {
    return Error{ErrorCode::kInvalidParameter, "core.analyzer",
                 "node fault tolerance above 16 is not supported without "
                 "internal RAID (the chain has 2^(k+1) states)"};
  }
  return std::nullopt;
}

}  // namespace

Method parse_method(const std::string& name) {
  if (name == "exact") return Method::kExactChain;
  if (name == "closed") return Method::kClosedForm;
  throw ContractViolation("unknown method '" + name + "' (use exact|closed)");
}

std::string method_name(Method method) {
  return method == Method::kExactChain ? "exact" : "closed";
}

Analyzer::Analyzer(SystemConfig config) : config_(std::move(config)) {
  NSREL_EXPECTS(!check(config_));
}

rebuild::RebuildPlanner Analyzer::planner(int node_fault_tolerance) const {
  rebuild::RebuildParams p;
  p.node_set_size = config_.node_set_size;
  p.redundancy_set_size = config_.redundancy_set_size;
  p.fault_tolerance = node_fault_tolerance;
  p.drives_per_node = config_.drives_per_node;
  p.drive = config_.drive;
  p.link = config_.link;
  p.rebuild_command = config_.rebuild_command;
  p.restripe_command = config_.restripe_command;
  p.capacity_utilization = config_.capacity_utilization;
  p.rebuild_bandwidth_fraction = config_.rebuild_bandwidth_fraction;
  return rebuild::RebuildPlanner(p);
}

double Analyzer::code_rate(const Configuration& configuration) const {
  const double r = config_.redundancy_set_size;
  const double t = configuration.node_fault_tolerance;
  const double d = config_.drives_per_node;
  const double m = internal_fault_tolerance(configuration.internal);
  NSREL_EXPECTS(r > t);
  NSREL_EXPECTS(d > m);
  return (r - t) / r * (d - m) / d;
}

Bytes Analyzer::logical_capacity(const Configuration& configuration) const {
  const double raw = static_cast<double>(config_.node_set_size) *
                     static_cast<double>(config_.drives_per_node) *
                     config_.drive.capacity.value();
  return Bytes(raw * config_.capacity_utilization * code_rate(configuration));
}

models::NoInternalRaidParams Analyzer::nir_params(
    const Configuration& configuration) const {
  NSREL_EXPECTS(configuration.internal == InternalScheme::kNone);
  const rebuild::RebuildRates rates =
      planner(configuration.node_fault_tolerance).rates();
  models::NoInternalRaidParams p;
  p.node_set_size = config_.node_set_size;
  p.redundancy_set_size = config_.redundancy_set_size;
  p.fault_tolerance = configuration.node_fault_tolerance;
  p.drives_per_node = config_.drives_per_node;
  p.node_failure = rate_of(config_.node_mttf);
  p.drive_failure = rate_of(config_.drive.mttf);
  p.node_rebuild = rates.node_rebuild_rate;
  p.drive_rebuild = rates.drive_rebuild_rate;
  p.capacity = config_.drive.capacity;
  p.her_per_byte = config_.drive.her_per_byte;
  return p;
}

models::InternalRaidParams Analyzer::ir_params(
    const Configuration& configuration) const {
  NSREL_EXPECTS(configuration.internal != InternalScheme::kNone);
  const rebuild::RebuildRates rates =
      planner(configuration.node_fault_tolerance).rates();
  raid::ArrayParams array;
  array.drives = config_.drives_per_node;
  array.drive_mttf = config_.drive.mttf;
  array.restripe_rate = rates.restripe_rate;
  array.capacity = config_.drive.capacity;
  array.her_per_byte = config_.drive.her_per_byte;
  const raid::GeneralArrayModel array_model(
      array, internal_fault_tolerance(configuration.internal));
  const raid::ArrayRates array_rates = array_model.rates();

  models::InternalRaidParams p;
  p.node_set_size = config_.node_set_size;
  p.redundancy_set_size = config_.redundancy_set_size;
  p.fault_tolerance = configuration.node_fault_tolerance;
  p.node_failure = rate_of(config_.node_mttf);
  p.node_rebuild = rates.node_rebuild_rate;
  p.array_failure = array_rates.array_failure;
  p.sector_error = array_rates.sector_error;
  return p;
}

Analyzer::BuiltChain Analyzer::build_chain(
    const Configuration& configuration) const {
  if (configuration.internal == InternalScheme::kNone) {
    return {models::NoInternalRaidModel(nir_params(configuration)).chain(),
            models::NoInternalRaidModel::root_state()};
  }
  return {models::InternalRaidNodeModel(ir_params(configuration)).chain(), 0};
}

[[nodiscard]] Expected<Analyzer::BuiltChain> Analyzer::try_build_chain(
    const Configuration& configuration) const {
  if (auto bad = check_fault_tolerance(configuration,
                                       config_.redundancy_set_size)) {
    return *std::move(bad);
  }
  return build_chain(configuration);
}

sim::MttdlEstimate Analyzer::simulate_mttdl(
    const Configuration& configuration, int trials, std::uint64_t seed,
    const sim::ParallelOptions& options) const {
  if (configuration.internal == InternalScheme::kNone) {
    return sim::NirStorageSimulator(nir_params(configuration), seed)
        .estimate(trials, options);
  }
  return sim::IrStorageSimulator(ir_params(configuration), seed)
      .estimate(trials, options);
}

AnalysisResult Analyzer::analyze(const Configuration& configuration,
                                 Method method, SolveCache* cache) const {
  NSREL_EXPECTS(configuration.node_fault_tolerance >= 1);
  NSREL_EXPECTS(configuration.node_fault_tolerance <
                config_.redundancy_set_size);
  return try_analyze(configuration, method, cache).value_or_throw();
}

[[nodiscard]] Expected<AnalysisResult> Analyzer::try_analyze(
    const Configuration& configuration, Method method,
    SolveCache* cache) const {
  if (auto bad = check_fault_tolerance(configuration,
                                       config_.redundancy_set_size)) {
    return *std::move(bad);
  }

  AnalysisResult result;
  result.configuration = configuration;

  try {
    const rebuild::RebuildPlanner plan =
        planner(configuration.node_fault_tolerance);
    result.rebuild = plan.rates();

    Expected<double> mttdl_hours{0.0};
    if (configuration.internal == InternalScheme::kNone) {
      const models::NoInternalRaidParams p = nir_params(configuration);
      mttdl_hours = cached_solve(cache, nir_solve_key(p, method), [&] {
        const models::NoInternalRaidModel model(p);
        return method == Method::kExactChain ? model.mttdl_exact()
                                             : model.mttdl_closed_form();
      });
    } else {
      const models::InternalRaidParams p = ir_params(configuration);
      result.array_failure_rate = p.array_failure;
      result.sector_error_rate = p.sector_error;
      mttdl_hours = cached_solve(cache, ir_solve_key(p, method), [&] {
        const models::InternalRaidNodeModel model(p);
        return method == Method::kExactChain ? model.mttdl_exact()
                                             : model.mttdl_closed_form();
      });
    }
    if (!mttdl_hours.has_value()) return mttdl_hours.error();
    result.mttdl = Hours(mttdl_hours.value());

    result.events_per_system_year = 1.0 / to_years(result.mttdl);
    result.logical_capacity = logical_capacity(configuration);
    const double petabytes_logical =
        result.logical_capacity.value() / petabytes(1.0).value();
    if (!std::isfinite(petabytes_logical) || petabytes_logical <= 0.0) {
      return Error{ErrorCode::kNonFiniteResult, "core.analyzer",
                   "logical capacity is non-finite or nonpositive"};
    }
    result.events_per_pb_year =
        result.events_per_system_year / petabytes_logical;
  } catch (const ErrorException& e) {
    return e.error();
  } catch (const ContractViolation& e) {
    return Error{ErrorCode::kContractViolation, "core.analyzer", e.what()};
  }

  if (!std::isfinite(result.mttdl.value()) || result.mttdl.value() <= 0.0 ||
      !std::isfinite(result.events_per_pb_year)) {
    return Error{ErrorCode::kNonFiniteResult, "core.analyzer",
                 "MTTDL or events per PB-year is non-finite or nonpositive"};
  }
  return result;
}

Hours Analyzer::mttdl(const Configuration& configuration,
                      Method method) const {
  return analyze(configuration, method).mttdl;
}

double Analyzer::events_per_pb_year(const Configuration& configuration,
                                    Method method) const {
  return analyze(configuration, method).events_per_pb_year;
}

}  // namespace nsrel::core
