// Operating-point sweep grids with per-worker AnalysisContext clones.
//
// The toolkit's design-space loops are 1-D curves (V_T for Figs. 3-4,
// V_DD for energy-delay) or 2-D grids ((fga, bga) for Fig. 10). SweepGrid
// names the iteration space once — axes, row-major enumeration, index <->
// coordinate mapping — and `map`/`map_with_context` evaluate a functor at
// every point through exec::parallel_map.
//
// AnalysisContext::set_operating_point *mutates* the context (loads,
// memo caches), so concurrent workers must never share one.
// map_with_context clones the prototype once per participating worker
// (structure caches are deep-copied; the netlist stays shared — it is
// const and its lazy caches are warmed here before fan-out). Clones
// recompute memoized values through identical expressions, so results
// are bit-identical to a single context walking the grid serially.
//
// Scheduling: both maps forward ParallelOptions to exec::parallel_map,
// whose guided cursor hands out shrinking claims, so a grid whose cell
// costs skew (optimizer iteration counts vary point to point across the
// Fig. 10 grid; infeasible corners bail early) still finishes with every
// worker busy on the tail. Results are schedule-invariant either way.
#pragma once

#include <cstddef>
#include <vector>

#include "analysis/analysis_context.hpp"
#include "exec/parallel.hpp"

namespace lv::exec {

class SweepGrid {
 public:
  struct Point {
    std::size_t index = 0;  // row-major flat index
    std::size_t ix = 0;     // position along x (fast axis)
    std::size_t iy = 0;     // position along y (0 for 1-D grids)
    double x = 0.0;
    double y = 0.0;  // 0.0 for 1-D grids
  };

  // 1-D grid over explicit points.
  explicit SweepGrid(std::vector<double> xs);
  // 2-D grid: x is the fast axis; points enumerate row-major (y outer).
  SweepGrid(std::vector<double> xs, std::vector<double> ys);

  // n evenly spaced points over [lo, hi] (1-D).
  static SweepGrid linear(double lo, double hi, std::size_t n);
  // n log-spaced points over [lo, hi], lo > 0 (1-D).
  static SweepGrid logarithmic(double lo, double hi, std::size_t n);

  bool is_2d() const { return two_d_; }
  std::size_t size() const {
    return two_d_ ? xs_.size() * ys_.size() : xs_.size();
  }
  const std::vector<double>& x_axis() const { return xs_; }
  const std::vector<double>& y_axis() const { return ys_; }

  Point at(std::size_t index) const {
    Point p;
    p.index = index;
    if (two_d_) {
      p.ix = index % xs_.size();
      p.iy = index / xs_.size();
      p.y = ys_[p.iy];
    } else {
      p.ix = index;
    }
    p.x = xs_[p.ix];
    return p;
  }

  // out[i] = fn(at(i)) — for grids whose evaluation needs no shared
  // mutable engine (e.g. the Fig. 10 energy-ratio cells).
  template <class T, class Fn>
  std::vector<T> map(Fn&& fn, const ParallelOptions& opt = {}) const {
    return parallel_map<T>(
        size(), [&](std::size_t i) { return fn(at(i)); }, opt);
  }

  // out[i] = fn(ctx, at(i)) with `proto` cloned once per worker. fn may
  // retarget its clone freely (set_operating_point per point is the
  // expected shape); it must not touch `proto`.
  template <class T, class Fn>
  std::vector<T> map_with_context(const analysis::AnalysisContext& proto,
                                  Fn&& fn,
                                  const ParallelOptions& opt = {}) const {
    // Build the netlist's lazy fanout/topo caches before threads share it.
    proto.netlist().topo_order();
    return parallel_map_stateful<T>(
        size(), [&] { return proto.clone(); },
        [&](analysis::AnalysisContext& ctx, std::size_t i) {
          return fn(ctx, at(i));
        },
        opt);
  }

 private:
  std::vector<double> xs_;
  std::vector<double> ys_;
  bool two_d_ = false;
};

}  // namespace lv::exec
