#include "ctmc/elimination.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "obs/probe_names.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"

namespace nsrel::ctmc {

namespace {

/// One row of jump probabilities: (column, value) pairs sorted by column.
using Row = std::vector<std::pair<std::uint32_t, double>>;

/// Position of column `col` in `row`, or where it would be inserted.
Row::iterator find_column(Row& row, Row::iterator from, std::uint32_t col) {
  return std::lower_bound(from, row.end(), col,
                          [](const Row::value_type& entry, std::uint32_t c) {
                            return entry.first < c;
                          });
}

/// The embedded-jump form
///   m_i = c[i] + sum_j b[i][j] * m_j,   sum_j b[i][j] + ab[i] = 1,
/// with b stored sparsely: b[i] holds row i's nonzero jump probabilities,
/// col_rows[j] the rows (ascending) holding an entry in column j.
struct JumpSystem {
  std::vector<Row> b;
  std::vector<std::vector<std::uint32_t>> col_rows;
  std::vector<double> ab;
  std::vector<double> c;

  explicit JumpSystem(std::size_t n) : b(n), col_rows(n), ab(n), c(n) {}

  /// Builds col_rows from the assembled rows; walking rows in order
  /// leaves every column list sorted without a single insert. Each list
  /// is sized up front, with one spare slot for fill-in.
  void index_columns() {
    std::vector<std::uint32_t> count(b.size(), 0);
    for (const Row& row : b) {
      for (const auto& entry : row) ++count[entry.first];
    }
    for (std::size_t j = 0; j < b.size(); ++j) {
      col_rows[j].reserve(count[j] + 1);
    }
    for (std::uint32_t i = 0; i < b.size(); ++i) {
      for (const auto& entry : b[i]) col_rows[entry.first].push_back(i);
    }
  }
};

/// Eliminates every state except `initial` (order: last to first), then
/// m_initial = c[initial] / ab[initial]. Eliminated rows and columns are
/// detached from both b and col_rows, so later steps never see them.
[[nodiscard]] Expected<double> eliminate(JumpSystem& system,
                                         std::size_t initial) {
  auto& [b, col_rows, ab, c] = system;
  for (std::size_t step = b.size(); step-- > 0;) {
    if (step == initial) continue;
    const auto s = static_cast<std::uint32_t>(step);
    const Row& pivot = b[s];
    // D_s = 1 - b[s][s], computed as a positive sum via the invariant.
    // The terms are added in ascending column order, the order the dense
    // oracle adds them in: floating-point addition is not associative,
    // so this order is what keeps the two bit-identical.
    double d = ab[s];
    for (const auto& [j, value] : pivot) {
      if (j != s) d += value;
    }
    if (!(d > 0.0)) {
      return Error{ErrorCode::kSingularGenerator, "ctmc.elimination",
                   "elimination pivot vanished (state has no remaining "
                   "path to absorption)"};
    }
    const double inv_d = 1.0 / d;
    for (const std::uint32_t i : col_rows[s]) {
      if (i == s) continue;
      Row& row = b[i];
      const auto entry = find_column(row, row.begin(), s);
      const double weight = entry->second * inv_d;
      row.erase(entry);
      if (weight == 0.0) continue;
      c[i] += weight * c[s];
      ab[i] += weight * ab[s];
      // Both rows are sorted, so each lookup resumes after the last one.
      auto cell = row.begin();
      for (const auto& [j, value] : pivot) {
        if (j == s) continue;
        cell = find_column(row, cell, j);
        if (cell != row.end() && cell->first == j) {
          cell->second += weight * value;
        } else {
          cell = row.insert(cell, {j, weight * value});
          auto& rows = col_rows[j];
          rows.insert(std::lower_bound(rows.begin(), rows.end(), i), i);
        }
        ++cell;
      }
    }
    for (const auto& entry : pivot) {
      auto& rows = col_rows[entry.first];
      const auto it = std::lower_bound(rows.begin(), rows.end(), s);
      if (it != rows.end() && *it == s) rows.erase(it);
    }
    b[s].clear();
    col_rows[s].clear();
  }
  // Only the initial state remains: 1 - b[ii] = ab[i], so
  // m = c / ab (both accumulated without any subtraction).
  if (!(ab[initial] > 0.0)) {
    return Error{ErrorCode::kSingularGenerator, "ctmc.elimination",
                 "initial state's absorption probability vanished"};
  }
  const double mean = c[initial] / ab[initial];
  if (!std::isfinite(mean) || !(mean > 0.0)) {
    return Error{ErrorCode::kNonFiniteResult, "ctmc.elimination",
                 "mean absorption time is non-finite or nonpositive"};
  }
  return mean;
}

}  // namespace

double EliminationSolver::mean_absorption_time_hours(const Chain& chain,
                                                     StateId initial) {
  return try_mean_absorption_time_hours(chain, initial).value_or_throw();
}

[[nodiscard]] Expected<double> EliminationSolver::try_mean_absorption_time_hours(
    const Chain& chain, StateId initial) {
  NSREL_EXPECTS(chain.validate().empty());
  NSREL_EXPECTS(initial < chain.state_count());
  NSREL_EXPECTS(chain.state(initial).kind == StateKind::kTransient);

  const auto transient = chain.transient_states();
  const std::size_t n = transient.size();
  std::vector<std::size_t> index(chain.state_count(), n);
  for (std::size_t i = 0; i < n; ++i) index[transient[i]] = i;
  NSREL_ASSERT(index[initial] < n);

  obs::Span span(obs::probe::kSpanEliminationSolve,
                 obs::probe::kSpanCategoryCtmc);
  if (span.armed()) span.arg("states", static_cast<std::uint64_t>(n));

  // Rows are sized up front: the out-degree, plus one slot for the
  // self-entry that eliminating a child adds to its parent's row.
  JumpSystem system(n);
  std::vector<std::uint32_t> out_degree(n, 0);
  for (const auto& t : chain.transitions()) {
    if (index[t.to] < n) ++out_degree[index[t.from]];
  }
  for (std::size_t i = 0; i < n; ++i) system.b[i].reserve(out_degree[i] + 1);
  // One pass in transition order: exit rates (held in c until they are
  // inverted below), absorption rates, and the transient-to-transient
  // rates accumulated straight into the rows.
  std::vector<double>& exit = system.c;
  for (const auto& t : chain.transitions()) {
    const std::size_t from = index[t.from];
    NSREL_ASSERT(from < n);
    exit[from] += t.rate;
    const std::size_t to = index[t.to];
    if (to >= n) {
      system.ab[from] += t.rate;
      continue;
    }
    Row& row = system.b[from];
    const auto col = static_cast<std::uint32_t>(to);
    const auto cell = find_column(row, row.begin(), col);
    if (cell != row.end() && cell->first == col) {
      cell->second += t.rate;
    } else {
      row.insert(cell, {col, t.rate});
    }
  }
  // Rates to probabilities: divide every row by its exit rate; the mean
  // hold time c[i] is 1 / exit.
  for (std::size_t i = 0; i < n; ++i) {
    NSREL_ASSERT(exit[i] > 0.0);
    const double inv_exit = 1.0 / exit[i];
    system.c[i] = inv_exit;
    system.ab[i] *= inv_exit;
    for (auto& entry : system.b[i]) entry.second *= inv_exit;
  }
  system.index_columns();
  return eliminate(system, index[initial]);
}

double EliminationSolver::mean_absorption_time_hours(
    const linalg::sparse::CsrMatrix& r,
    const std::vector<double>& absorption_rates, std::size_t initial) {
  return try_mean_absorption_time_hours(r, absorption_rates, initial)
      .value_or_throw();
}

[[nodiscard]] Expected<double> EliminationSolver::try_mean_absorption_time_hours(
    const linalg::sparse::CsrMatrix& r,
    const std::vector<double>& absorption_rates, std::size_t initial) {
  NSREL_EXPECTS(r.square());
  const std::size_t n = r.rows();
  NSREL_EXPECTS(absorption_rates.size() == n);
  NSREL_EXPECTS(initial < n);

  JumpSystem system(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double exit = r.at(i, i);
    NSREL_EXPECTS(exit > 0.0);
    NSREL_EXPECTS(absorption_rates[i] >= 0.0);
    const double inv_exit = 1.0 / exit;
    system.c[i] = inv_exit;
    system.ab[i] = absorption_rates[i] * inv_exit;
    Row& row = system.b[i];
    row.reserve(r.row_ptr()[i + 1] - r.row_ptr()[i]);
    for (std::size_t e = r.row_ptr()[i]; e < r.row_ptr()[i + 1]; ++e) {
      const std::uint32_t j = r.col_index()[e];
      if (j == i) continue;
      NSREL_EXPECTS(r.values()[e] <= 0.0);
      row.emplace_back(j, -r.values()[e] * inv_exit);
    }
  }
  system.index_columns();
  return eliminate(system, initial);
}

}  // namespace nsrel::ctmc
