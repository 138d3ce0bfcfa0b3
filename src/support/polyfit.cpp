#include "tytra/support/polyfit.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace tytra {

std::vector<double> solve_linear_system(std::vector<double> a,
                                        std::vector<double> b,
                                        std::size_t n) {
  if (a.size() != n * n || b.size() != n) {
    throw std::invalid_argument("solve_linear_system: dimension mismatch");
  }
  for (std::size_t col = 0; col < n; ++col) {
    // Partial pivoting: bring the largest remaining entry into the diagonal.
    std::size_t pivot = col;
    for (std::size_t row = col + 1; row < n; ++row) {
      if (std::abs(a[row * n + col]) > std::abs(a[pivot * n + col])) pivot = row;
    }
    if (std::abs(a[pivot * n + col]) < 1e-12) {
      throw std::invalid_argument("solve_linear_system: singular matrix");
    }
    if (pivot != col) {
      for (std::size_t k = 0; k < n; ++k) std::swap(a[col * n + k], a[pivot * n + k]);
      std::swap(b[col], b[pivot]);
    }
    const double inv = 1.0 / a[col * n + col];
    for (std::size_t row = col + 1; row < n; ++row) {
      const double factor = a[row * n + col] * inv;
      if (factor == 0.0) continue;
      for (std::size_t k = col; k < n; ++k) a[row * n + k] -= factor * a[col * n + k];
      b[row] -= factor * b[col];
    }
  }
  std::vector<double> x(n, 0.0);
  for (std::size_t i = n; i-- > 0;) {
    double sum = b[i];
    for (std::size_t k = i + 1; k < n; ++k) sum -= a[i * n + k] * x[k];
    x[i] = sum / a[i * n + i];
  }
  return x;
}

Polynomial Polynomial::fit(std::span<const double> xs,
                           std::span<const double> ys, int degree) {
  if (degree < 0) throw std::invalid_argument("Polynomial::fit: negative degree");
  if (xs.size() != ys.size()) {
    throw std::invalid_argument("Polynomial::fit: xs/ys size mismatch");
  }
  const auto m = static_cast<std::size_t>(degree) + 1;
  if (xs.size() < m) {
    throw std::invalid_argument("Polynomial::fit: not enough samples for degree");
  }
  // Normal equations (V^T V) c = V^T y with Vandermonde matrix V.
  std::vector<double> ata(m * m, 0.0);
  std::vector<double> aty(m, 0.0);
  for (std::size_t s = 0; s < xs.size(); ++s) {
    double pow_i = 1.0;
    std::vector<double> powers(2 * m - 1);
    powers[0] = 1.0;
    for (std::size_t p = 1; p < 2 * m - 1; ++p) powers[p] = powers[p - 1] * xs[s];
    for (std::size_t i = 0; i < m; ++i) {
      aty[i] += powers[i] * ys[s];
      for (std::size_t j = 0; j < m; ++j) ata[i * m + j] += powers[i + j];
    }
    (void)pow_i;
  }
  return Polynomial(solve_linear_system(std::move(ata), std::move(aty), m));
}

double Polynomial::eval(double x) const {
  double acc = 0.0;
  for (std::size_t i = coeffs_.size(); i-- > 0;) acc = acc * x + coeffs_[i];
  return acc;
}

PiecewiseLinear::PiecewiseLinear(std::vector<Knot> knots)
    : knots_(std::move(knots)) {
  for (std::size_t i = 1; i < knots_.size(); ++i) {
    if (!(knots_[i - 1].x < knots_[i].x)) {
      throw std::invalid_argument("PiecewiseLinear: knots must be strictly increasing in x");
    }
  }
}

PiecewiseLinear PiecewiseLinear::through_points(std::span<const double> xs,
                                                std::span<const double> ys) {
  if (xs.size() != ys.size()) {
    throw std::invalid_argument("PiecewiseLinear::through_points: size mismatch");
  }
  std::vector<Knot> knots;
  knots.reserve(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) knots.push_back({xs[i], ys[i]});
  std::sort(knots.begin(), knots.end(),
            [](const Knot& a, const Knot& b) { return a.x < b.x; });
  // Deduplicate equal x (keep the last sample).
  std::vector<Knot> unique;
  for (const auto& k : knots) {
    if (!unique.empty() && unique.back().x == k.x) unique.back() = k;
    else unique.push_back(k);
  }
  return PiecewiseLinear(std::move(unique));
}

double PiecewiseLinear::eval(double x) const {
  if (knots_.empty()) return 0.0;
  if (knots_.size() == 1) return knots_.front().y;
  if (x <= knots_.front().x) {
    // Linear extrapolation using the first segment.
    const auto& a = knots_[0];
    const auto& b = knots_[1];
    return a.y + (x - a.x) * (b.y - a.y) / (b.x - a.x);
  }
  if (x >= knots_.back().x) {
    const auto& a = knots_[knots_.size() - 2];
    const auto& b = knots_.back();
    return b.y + (x - b.x) * (b.y - a.y) / (b.x - a.x);
  }
  // Binary search for the containing segment.
  std::size_t lo = 0;
  std::size_t hi = knots_.size() - 1;
  while (hi - lo > 1) {
    const std::size_t mid = (lo + hi) / 2;
    if (knots_[mid].x <= x) lo = mid;
    else hi = mid;
  }
  const auto& a = knots_[lo];
  const auto& b = knots_[hi];
  const double t = (x - a.x) / (b.x - a.x);
  return a.y + t * (b.y - a.y);
}

StepModel::StepModel(std::vector<Step> steps) : steps_(std::move(steps)) {
  for (std::size_t i = 1; i < steps_.size(); ++i) {
    if (!(steps_[i - 1].from_x < steps_[i].from_x)) {
      throw std::invalid_argument("StepModel: steps must be strictly increasing in from_x");
    }
  }
}

StepModel StepModel::from_samples(std::span<const double> xs,
                                  std::span<const double> ys) {
  if (xs.size() != ys.size()) {
    throw std::invalid_argument("StepModel::from_samples: size mismatch");
  }
  std::vector<Step> steps;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (i > 0 && !(xs[i - 1] < xs[i])) {
      throw std::invalid_argument("StepModel::from_samples: xs must be sorted");
    }
    if (steps.empty() || steps.back().value != ys[i]) {
      steps.push_back({xs[i], ys[i]});
    }
  }
  return StepModel(std::move(steps));
}

double StepModel::eval(double x) const {
  if (steps_.empty()) return 0.0;
  double value = steps_.front().value;
  for (const auto& s : steps_) {
    if (x >= s.from_x) value = s.value;
    else break;
  }
  return value;
}

std::vector<double> StepModel::discontinuities() const {
  std::vector<double> out;
  for (std::size_t i = 1; i < steps_.size(); ++i) out.push_back(steps_[i].from_x);
  return out;
}

}  // namespace tytra
