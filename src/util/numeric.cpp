#include "util/numeric.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace lv::util {

std::optional<SolveResult> bisect(const std::function<double(double)>& f,
                                  double lo, double hi, double x_tol,
                                  int max_iter) {
  require(lo < hi, "bisect: lo must be < hi");
  const double flo = f(lo);
  const double fhi = f(hi);
  return bisect(f, lo, hi, flo, fhi, x_tol, max_iter);
}

std::optional<SolveResult> bisect(const std::function<double(double)>& f,
                                  double lo, double hi, double flo,
                                  double fhi, double x_tol, int max_iter) {
  require(lo < hi, "bisect: lo must be < hi");
  if (flo == 0.0) return SolveResult{lo, 0.0, 0, true};
  if (fhi == 0.0) return SolveResult{hi, 0.0, 0, true};
  if ((flo > 0.0) == (fhi > 0.0)) return std::nullopt;

  SolveResult r;
  for (r.iterations = 0; r.iterations < max_iter; ++r.iterations) {
    const double mid = 0.5 * (lo + hi);
    const double fmid = f(mid);
    if (fmid == 0.0 || (hi - lo) < x_tol) {
      r.x = mid;
      r.value = fmid;
      r.converged = true;
      return r;
    }
    if ((fmid > 0.0) == (flo > 0.0)) {
      lo = mid;
      flo = fmid;
    } else {
      hi = mid;
    }
  }
  r.x = 0.5 * (lo + hi);
  r.value = f(r.x);
  r.converged = (hi - lo) < x_tol;
  return r;
}

SolveResult golden_minimize(const std::function<double(double)>& f, double lo,
                            double hi, double x_tol, int max_iter) {
  require(lo < hi, "golden_minimize: lo must be < hi");
  constexpr double inv_phi = 0.6180339887498949;  // 1/phi
  double a = lo;
  double b = hi;
  double c = b - inv_phi * (b - a);
  double d = a + inv_phi * (b - a);
  double fc = f(c);
  double fd = f(d);

  SolveResult r;
  for (r.iterations = 0; r.iterations < max_iter && (b - a) > x_tol;
       ++r.iterations) {
    if (fc < fd) {
      b = d;
      d = c;
      fd = fc;
      c = b - inv_phi * (b - a);
      fc = f(c);
    } else {
      a = c;
      c = d;
      fc = fd;
      d = a + inv_phi * (b - a);
      fd = f(d);
    }
  }
  r.x = 0.5 * (a + b);
  r.value = f(r.x);
  r.converged = (b - a) <= x_tol;
  return r;
}

SolveResult grid_refine_minimize(const std::function<double(double)>& f,
                                 double lo, double hi, int grid_points,
                                 double x_tol) {
  require(grid_points >= 3, "grid_refine_minimize: need >= 3 grid points");
  const auto xs = linspace(lo, hi, static_cast<std::size_t>(grid_points));
  std::size_t best = 0;
  double best_val = f(xs[0]);
  for (std::size_t i = 1; i < xs.size(); ++i) {
    const double v = f(xs[i]);
    if (v < best_val) {
      best_val = v;
      best = i;
    }
  }
  const double a = xs[best == 0 ? 0 : best - 1];
  const double b = xs[best + 1 >= xs.size() ? xs.size() - 1 : best + 1];
  if (a >= b) return SolveResult{xs[best], best_val, grid_points, true};
  SolveResult r = golden_minimize(f, a, b, x_tol);
  r.iterations += grid_points;
  // Guard against the refinement wandering to a worse point on a plateau.
  if (best_val < r.value) {
    r.x = xs[best];
    r.value = best_val;
  }
  return r;
}

double integrate_trapezoid(const std::function<double(double)>& f, double lo,
                           double hi, int panels) {
  require(panels >= 1, "integrate_trapezoid: need >= 1 panel");
  const double h = (hi - lo) / panels;
  double acc = 0.5 * (f(lo) + f(hi));
  for (int i = 1; i < panels; ++i) acc += f(lo + h * i);
  return acc * h;
}

std::vector<double> linspace(double lo, double hi, std::size_t n) {
  require(n >= 1, "linspace: need >= 1 point");
  std::vector<double> out;
  out.reserve(n);
  if (n == 1) {
    out.push_back(lo);
    return out;
  }
  const double step = (hi - lo) / static_cast<double>(n - 1);
  for (std::size_t i = 0; i < n; ++i)
    out.push_back(lo + step * static_cast<double>(i));
  out.back() = hi;  // avoid accumulated rounding at the endpoint
  return out;
}

std::vector<double> logspace(double lo, double hi, std::size_t n) {
  require(lo > 0.0 && hi > 0.0, "logspace: bounds must be positive");
  auto exps = linspace(std::log10(lo), std::log10(hi), n);
  for (double& e : exps) e = std::pow(10.0, e);
  return exps;
}

double interp_linear(const std::vector<double>& xs,
                     const std::vector<double>& ys, double x) {
  require(xs.size() == ys.size() && xs.size() >= 2,
          "interp_linear: need matching xs/ys with >= 2 samples");
  if (x <= xs.front()) return ys.front();
  if (x >= xs.back()) return ys.back();
  const auto it = std::upper_bound(xs.begin(), xs.end(), x);
  const std::size_t i = static_cast<std::size_t>(it - xs.begin());
  const double t = (x - xs[i - 1]) / (xs[i] - xs[i - 1]);
  return ys[i - 1] + t * (ys[i] - ys[i - 1]);
}

bool approx_equal(double a, double b, double rel_tol, double abs_tol) {
  const double scale = std::max(std::abs(a), std::abs(b));
  return std::abs(a - b) <= abs_tol + rel_tol * scale;
}

}  // namespace lv::util
