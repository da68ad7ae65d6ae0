// Seeded inputs and result checks of the pipeline benchmark.
//
// The matrices are the Table-1 analogues of sparse/problems.cpp. Seed 0
// keeps them exactly, values included. Any other seed redraws every
// value (off-diagonals uniform in [-1, 1), diagonal dominant by rows and
// columns, symmetric where the problem is SYM) and every right-hand
// side, but keeps the pattern. The pattern stays fixed because the
// circuit and LP generators draw their structure from the same spec
// seed, and PRE2 at scale 0.5 ranges from 5.6 to 85 GF over spec seeds
// 1-10: a per-seed time would then measure the draw, not the solver.
// The library sees only the generated matrices.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "memfront/sparse/problems.hpp"
#include "memfront/support/hash.hpp"
#include "memfront/support/rng.hpp"

namespace pipeline_bench {

using memfront::count_t;
using memfront::CscMatrix;
using memfront::index_t;
using memfront::ProblemId;

struct Input {
  std::string name;
  bool symmetric = false;
  CscMatrix a;
  std::vector<double> b;  // n x nrhs, column-major
  index_t nrhs = 1;

  std::span<const double> rhs(index_t col) const {
    const auto n = static_cast<std::size_t>(a.ncols());
    return std::span<const double>(b).subspan(static_cast<std::size_t>(col) * n,
                                              n);
  }
  std::size_t bytes() const {
    return a.colptr().size() * sizeof(count_t) +
           a.rowind().size() * sizeof(index_t) +
           (a.values().size() + b.size()) * sizeof(double);
  }
};

inline double uniform_pm1(std::uint64_t key) {
  return 2.0 * memfront::Rng(key).real() - 1.0;
}

/// Redraws every stored value of `a` from `key`, keeping the pattern.
/// An off-diagonal value depends only on (key, row, col) — on the
/// unordered pair for symmetric problems, so A = Aᵀ exactly.
inline void redraw_values(CscMatrix& a, bool symmetric, std::uint64_t key) {
  const index_t n = a.ncols();
  const auto colptr = a.colptr();
  const auto rowind = a.rowind();
  const auto values = a.mutable_values();
  std::vector<double> row_sum(static_cast<std::size_t>(n), 0.0);
  std::vector<double> col_sum(static_cast<std::size_t>(n), 0.0);
  for (index_t j = 0; j < n; ++j) {
    bool has_diagonal = false;
    for (count_t k = colptr[j]; k < colptr[j + 1]; ++k) {
      const index_t i = rowind[static_cast<std::size_t>(k)];
      if (i == j) {
        has_diagonal = true;
        continue;
      }
      const auto lo = static_cast<std::uint64_t>(symmetric ? std::min(i, j) : i);
      const auto hi = static_cast<std::uint64_t>(symmetric ? std::max(i, j) : j);
      const double v = uniform_pm1(memfront::hash_mix(memfront::hash_mix(key, lo), hi));
      values[static_cast<std::size_t>(k)] = v;
      row_sum[static_cast<std::size_t>(i)] += std::abs(v);
      col_sum[static_cast<std::size_t>(j)] += std::abs(v);
    }
    if (!has_diagonal)
      throw std::runtime_error("redraw_values: column without a diagonal entry");
  }
  for (index_t j = 0; j < n; ++j)
    for (count_t k = colptr[j]; k < colptr[j + 1]; ++k)
      if (rowind[static_cast<std::size_t>(k)] == j)
        values[static_cast<std::size_t>(k)] =
            std::max(row_sum[static_cast<std::size_t>(j)],
                     col_sum[static_cast<std::size_t>(j)]) +
            1.0;
}

/// One workload matrix with `nrhs` right-hand sides drawn from `seed`.
inline Input make_input(ProblemId id, double scale, std::uint64_t seed,
                        index_t nrhs) {
  memfront::Problem p = memfront::make_problem(id, scale);
  const std::uint64_t key =
      memfront::hash_mix(seed, static_cast<std::uint64_t>(id));
  if (seed != 0) redraw_values(p.matrix, p.symmetric, key);
  Input in{p.name, p.symmetric, std::move(p.matrix), {}, nrhs};
  memfront::Rng rng(memfront::hash_mix(key, std::uint64_t{0x726873}));
  in.b.resize(static_cast<std::size_t>(in.a.ncols()) *
              static_cast<std::size_t>(nrhs));
  for (double& v : in.b) v = rng.real(-1.0, 1.0);
  return in;
}

inline double matrix_norm_inf(const CscMatrix& a) {
  std::vector<double> row_sum(static_cast<std::size_t>(a.nrows()), 0.0);
  for (index_t j = 0; j < a.ncols(); ++j) {
    const auto rows = a.column(j);
    const auto vals = a.column_values(j);
    for (std::size_t k = 0; k < rows.size(); ++k)
      row_sum[static_cast<std::size_t>(rows[k])] += std::abs(vals[k]);
  }
  return *std::max_element(row_sum.begin(), row_sum.end());
}

/// Normwise backward error ||b - A x||_inf / (||A||_inf ||x||_inf), the
/// measure tests/parallel_numeric_test.cpp bounds by 1e-10.
inline double backward_error(const CscMatrix& a, double a_norm,
                             std::span<const double> x,
                             std::span<const double> b) {
  double x_norm = 0.0;
  for (double v : x) x_norm = std::max(x_norm, std::abs(v));
  return a.residual_inf(x, b) / (a_norm * x_norm);
}

}  // namespace pipeline_bench
