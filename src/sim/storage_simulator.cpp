#include "sim/storage_simulator.hpp"

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/assert.hpp"
#include "util/math.hpp"

namespace nsrel::sim {

namespace {
using combinat::FailureKind;
using combinat::FailureWord;
}  // namespace

NirStorageSimulator::NirStorageSimulator(
    const models::NoInternalRaidParams& params, std::uint64_t seed)
    : params_(params), seed_(seed), rng_(seed) {
  // Reuse the model's parameter validation and h machinery.
  const combinat::HParams h_params =
      models::NoInternalRaidModel(params).h_params();
  const int k = params_.fault_tolerance;
  NSREL_EXPECTS(k < 32);  // the failure stack is a 32-bit word
  for (int drives = 0; drives <= k; ++drives) {
    FailureWord word(static_cast<std::size_t>(k), FailureKind::kNode);
    for (int i = 0; i < drives; ++i) {
      word[static_cast<std::size_t>(i)] = FailureKind::kDrive;
    }
    // Saturated, matching the exact chain construction.
    critical_h_.push_back(
        saturated_probability(combinat::h_for_word(h_params, word)));
  }
}

std::span<const Outcome<NirState>> NirStorageSimulator::outcomes(
    const NirState& state, OutcomeBuffer<NirState>& scratch) const {
  const int k = params_.fault_tolerance;
  const int j = state.depth;
  const double survivors = static_cast<double>(params_.node_set_size - j);
  std::size_t n = 0;
  if (j > 0) {
    // LIFO repair of the most recent failure.
    const std::uint32_t top = std::uint32_t{1} << (j - 1);
    const bool drive = (state.drives & top) != 0;
    scratch[n++] = {drive ? params_.drive_rebuild.value()
                          : params_.node_rebuild.value(),
                    Move::kRepair, NirState{state.drives & ~top, j - 1}};
  }
  const double rates[] = {
      survivors * params_.node_failure.value(),
      survivors * static_cast<double>(params_.drives_per_node) *
          params_.drive_failure.value()};
  for (int drive = 0; drive < 2; ++drive) {
    if (!(rates[drive] > 0.0)) continue;
    if (j == k) {  // failure beyond tolerance
      scratch[n++] = {rates[drive], Move::kLoss, state};
      continue;
    }
    const NirState next{
        state.drives | (static_cast<std::uint32_t>(drive) << j), j + 1};
    // Going critical: the rebuild reads may hit a hard error.
    const double h =
        j == k - 1 ? critical_h_[static_cast<std::size_t>(
                         std::popcount(next.drives))]
                   : 0.0;
    scratch[n++] = {rates[drive], Move::kFailure, next, h};
  }
  return {scratch.data(), n};
}

double NirStorageSimulator::sample_time_to_data_loss() {
  return sample_time_to_data_loss(rng_);
}

double NirStorageSimulator::sample_time_to_data_loss(Xoshiro256& rng) const {
  return sample_time_to_loss(*this, rng);
}

MttdlEstimate NirStorageSimulator::estimate(
    int trials, const ParallelOptions& options) const {
  return estimate_mttdl(*this, trials, seed_, options);
}

IrStorageSimulator::IrStorageSimulator(
    const models::InternalRaidParams& params, std::uint64_t seed)
    : params_(params),
      critical_factor_(models::InternalRaidNodeModel(params).critical_factor()),
      seed_(seed),
      rng_(seed) {}

std::span<const Outcome<int>> IrStorageSimulator::outcomes(
    const int& failed, OutcomeBuffer<int>& scratch) const {
  const int t = params_.fault_tolerance;
  const double survivors = static_cast<double>(params_.node_set_size - failed);
  std::size_t n = 0;
  if (failed > 0) {
    scratch[n++] = {params_.node_rebuild.value(), Move::kRepair, failed - 1};
  }
  if (failed == t) {
    // Critical: a sector error on any surviving node loses data.
    const double sector =
        survivors * (critical_factor_ * params_.sector_error.value());
    if (sector > 0.0) scratch[n++] = {sector, Move::kLoss, failed};
  }
  // Node and array failures combine into one failure stream.
  const double fail =
      survivors *
      (params_.node_failure.value() + params_.array_failure.value());
  scratch[n++] = {fail, failed == t ? Move::kLoss : Move::kFailure, failed + 1};
  return {scratch.data(), n};
}

double IrStorageSimulator::sample_time_to_data_loss() {
  return sample_time_to_data_loss(rng_);
}

double IrStorageSimulator::sample_time_to_data_loss(Xoshiro256& rng) const {
  return sample_time_to_loss(*this, rng);
}

MttdlEstimate IrStorageSimulator::estimate(
    int trials, const ParallelOptions& options) const {
  return estimate_mttdl(*this, trials, seed_, options);
}

}  // namespace nsrel::sim
