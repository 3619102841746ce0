// Small numeric toolbox: root finding, 1-D minimization, quadrature, grids,
// and interpolation. These back the iso-delay V_DD(V_T) solver (Fig. 3),
// the energy-optimum search (Fig. 4), and the non-linear switched-
// capacitance integral (Fig. 1).
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <vector>

namespace lv::util {

// Result of a 1-D root or minimum search.
struct SolveResult {
  double x = 0.0;        // abscissa of the root / minimum
  double value = 0.0;    // f(x)
  int iterations = 0;    // iterations consumed
  bool converged = false;
};

// Finds x in [lo, hi] with f(x) == 0 by bisection. Requires f(lo) and
// f(hi) to bracket a sign change; returns nullopt otherwise. Tolerance is
// on the interval width.
std::optional<SolveResult> bisect(const std::function<double(double)>& f,
                                  double lo, double hi,
                                  double x_tol = 1e-9, int max_iter = 200);
// The same search for a caller that already evaluated the ends,
// flo = f(lo) and fhi = f(hi): f is then evaluated only inside (lo, hi).
std::optional<SolveResult> bisect(const std::function<double(double)>& f,
                                  double lo, double hi, double flo,
                                  double fhi, double x_tol = 1e-9,
                                  int max_iter = 200);

// Minimizes a unimodal f on [lo, hi] by golden-section search. Tolerance is
// on the interval width. Works on any continuous f; on a multimodal f it
// returns a local minimum.
SolveResult golden_minimize(const std::function<double(double)>& f,
                            double lo, double hi,
                            double x_tol = 1e-9, int max_iter = 400);

// Minimizes f on [lo, hi] by a coarse grid scan (n points) followed by
// golden-section refinement around the best grid point. Robust for the
// mildly multimodal energy surfaces in lv_opt.
SolveResult grid_refine_minimize(const std::function<double(double)>& f,
                                 double lo, double hi, int grid_points = 64,
                                 double x_tol = 1e-9);

// Composite-trapezoid integral of f over [lo, hi] with n panels (n >= 1).
double integrate_trapezoid(const std::function<double(double)>& f,
                           double lo, double hi, int panels = 256);

// n evenly spaced points from lo to hi inclusive (n >= 2, or n == 1 -> {lo}).
std::vector<double> linspace(double lo, double hi, std::size_t n);

// n log-evenly spaced points from lo to hi inclusive (both > 0).
std::vector<double> logspace(double lo, double hi, std::size_t n);

// Piecewise-linear interpolation of (xs, ys) at x. xs must be strictly
// increasing. Clamps outside the range (returns the end value).
double interp_linear(const std::vector<double>& xs,
                     const std::vector<double>& ys, double x);

// True when |a - b| <= abs_tol + rel_tol * max(|a|, |b|).
bool approx_equal(double a, double b, double rel_tol = 1e-9,
                  double abs_tol = 0.0);

}  // namespace lv::util
