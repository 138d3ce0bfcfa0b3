#pragma once

// Least-squares curve fitting used to derive the resource-cost laws of the
// paper's Fig. 9: polynomial trend-lines (e.g. ALUTs of an integer divider
// as a quadratic in bit-width) and piecewise-linear laws with points of
// discontinuity (e.g. DSP blocks of a multiplier).

#include <cstddef>
#include <span>
#include <vector>

namespace tytra {

/// A dense polynomial p(x) = c0 + c1*x + c2*x^2 + ...
class Polynomial {
 public:
  Polynomial() = default;
  explicit Polynomial(std::vector<double> coeffs) : coeffs_(std::move(coeffs)) {}

  /// Least-squares fit of a polynomial of the given degree through the
  /// sample points. Requires xs.size() == ys.size() and at least degree+1
  /// samples; throws std::invalid_argument otherwise.
  static Polynomial fit(std::span<const double> xs, std::span<const double> ys,
                        int degree);

  [[nodiscard]] double eval(double x) const;
  [[nodiscard]] int degree() const {
    return coeffs_.empty() ? -1 : static_cast<int>(coeffs_.size()) - 1;
  }
  [[nodiscard]] const std::vector<double>& coeffs() const { return coeffs_; }

 private:
  std::vector<double> coeffs_;
};

/// Piecewise-linear model over sorted knots; evaluation interpolates
/// between knots and clamps slope-extrapolates beyond the ends.
class PiecewiseLinear {
 public:
  struct Knot {
    double x;
    double y;
  };

  PiecewiseLinear() = default;
  /// Knots must be sorted by strictly increasing x (throws otherwise).
  explicit PiecewiseLinear(std::vector<Knot> knots);

  /// Builds the model directly through all sample points (after sorting and
  /// deduplicating x). This is the "empirical table" form used for
  /// bandwidth models.
  static PiecewiseLinear through_points(std::span<const double> xs,
                                        std::span<const double> ys);

  [[nodiscard]] double eval(double x) const;
  [[nodiscard]] const std::vector<Knot>& knots() const { return knots_; }
  [[nodiscard]] bool empty() const { return knots_.empty(); }

 private:
  std::vector<Knot> knots_;
};

/// A step function: value is constant between breakpoints, jumping at each
/// breakpoint. Models discrete resource counts such as DSP blocks vs
/// bit-width ("piece-wise-linear behaviour ... with clearly identifiable
/// points of discontinuity", Fig. 9).
class StepModel {
 public:
  struct Step {
    double from_x;  ///< This value applies for x >= from_x (until next step).
    double value;
  };

  StepModel() = default;
  explicit StepModel(std::vector<Step> steps);

  /// Infers the step structure from samples: consecutive samples with equal
  /// y are merged into one plateau. Samples must be sorted by x.
  static StepModel from_samples(std::span<const double> xs,
                                std::span<const double> ys);

  [[nodiscard]] double eval(double x) const;
  [[nodiscard]] const std::vector<Step>& steps() const { return steps_; }
  /// The x positions where the value jumps (excluding the initial plateau).
  [[nodiscard]] std::vector<double> discontinuities() const;

 private:
  std::vector<Step> steps_;
};

/// Solves the dense linear system A*x = b (row-major n x n matrix) with
/// Gaussian elimination and partial pivoting. Throws std::invalid_argument
/// if the system is singular to working precision.
std::vector<double> solve_linear_system(std::vector<double> a,
                                        std::vector<double> b, std::size_t n);

}  // namespace tytra
