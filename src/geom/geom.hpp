// Geometry primitives for layout processing.
//
// All coordinates are integer database units (DBU). The library is
// deliberately small: points, rectangles, Manhattan metrics and a dense 2-D
// grid container, which is all the router / feature extractor need.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <ostream>
#include <vector>

namespace repro::geom {

/// Database unit. Signed 64-bit so that sums of wirelengths never overflow.
using Dbu = std::int64_t;

/// A point in DBU space.
struct Point {
  Dbu x = 0;
  Dbu y = 0;

  friend bool operator==(const Point&, const Point&) = default;
  friend std::ostream& operator<<(std::ostream& os, const Point& p) {
    return os << '(' << p.x << ',' << p.y << ')';
  }
};

/// Manhattan (L1) distance between two points.
inline Dbu manhattan(const Point& a, const Point& b) {
  return std::abs(a.x - b.x) + std::abs(a.y - b.y);
}

/// Axis-aligned rectangle, closed on all sides: [lo.x, hi.x] x [lo.y, hi.y].
struct Rect {
  Point lo;
  Point hi;

  Rect() = default;
  Rect(Point lo_, Point hi_) : lo(lo_), hi(hi_) {
    assert(lo.x <= hi.x && lo.y <= hi.y);
  }
  Rect(Dbu x0, Dbu y0, Dbu x1, Dbu y1) : Rect(Point{x0, y0}, Point{x1, y1}) {}

  Dbu width() const { return hi.x - lo.x; }
  Dbu height() const { return hi.y - lo.y; }
  Dbu area() const { return width() * height(); }

  bool contains(const Point& p) const {
    return p.x >= lo.x && p.x <= hi.x && p.y >= lo.y && p.y <= hi.y;
  }

  friend bool operator==(const Rect&, const Rect&) = default;
};

/// Half-perimeter wirelength of the bounding box of a point set.
Dbu hpwl(const std::vector<Point>& pts);

/// Dense row-major 2-D grid of T. Used for congestion maps and routing
/// capacity tables.
template <class T>
class Grid2D {
 public:
  Grid2D() = default;
  Grid2D(int nx, int ny, T init = T{})
      : nx_(nx), ny_(ny), data_(static_cast<std::size_t>(nx) * ny, init) {
    assert(nx > 0 && ny > 0);
  }

  int nx() const { return nx_; }
  int ny() const { return ny_; }
  bool in_bounds(int x, int y) const {
    return x >= 0 && x < nx_ && y >= 0 && y < ny_;
  }

  T& at(int x, int y) {
    assert(in_bounds(x, y));
    return data_[static_cast<std::size_t>(y) * nx_ + x];
  }
  const T& at(int x, int y) const {
    assert(in_bounds(x, y));
    return data_[static_cast<std::size_t>(y) * nx_ + x];
  }

  auto begin() { return data_.begin(); }
  auto end() { return data_.end(); }
  auto begin() const { return data_.begin(); }
  auto end() const { return data_.end(); }

 private:
  int nx_ = 0;
  int ny_ = 0;
  std::vector<T> data_;
};

/// Clamp a value into [lo, hi].
template <class T>
T clamp(T v, T lo, T hi) {
  return std::min(std::max(v, lo), hi);
}

}  // namespace repro::geom
