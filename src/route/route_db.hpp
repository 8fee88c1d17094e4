// Routing database: the geometric result of global routing.
//
// Routes are expressed on the GCell grid. A wire segment is a maximal
// straight run of GCells on one metal layer (in that layer's preferred
// direction); a via connects two adjacent metal layers within one GCell.
// This is exactly the granularity the split-manufacturing cut needs: a
// split at via layer L keeps all wires on metals <= L and all vias on via
// layers < L, and turns each via *at* layer L into a v-pin.
#pragma once

#include <cstdint>
#include <vector>

#include "geom/geom.hpp"
#include "netlist/netlist.hpp"
#include "tech/tech.hpp"

namespace repro::route {

/// GCell coordinates on the routing grid.
struct GCell {
  int x = 0;
  int y = 0;
  friend bool operator==(const GCell&, const GCell&) = default;
};

/// A straight wire run on metal layer `layer` from GCell `a` to `b`
/// (inclusive). `a` and `b` share a row or column; a <= b componentwise.
struct WireSeg {
  int layer = 0;  ///< metal layer index, 1-based
  GCell a;
  GCell b;

  bool horizontal() const { return a.y == b.y; }
  /// Number of GCell-to-GCell edges covered (0 for a degenerate run).
  int length() const { return (b.x - a.x) + (b.y - a.y); }
};

/// A via on via layer `via_layer` (connecting metals via_layer and
/// via_layer+1) in GCell `at`.
struct Via {
  int via_layer = 0;  ///< 1-based
  GCell at;
};

/// Mapping from a net pin to its GCell (where its via stack rises).
struct PinAccess {
  netlist::PinRef pin;
  GCell gcell;
  int top_layer = 1;  ///< metal layer the stack reaches (>= 1)
};

/// Complete route of one net.
struct NetRoute {
  netlist::NetId net = netlist::kInvalidNet;
  std::vector<WireSeg> wires;
  std::vector<Via> vias;
  std::vector<PinAccess> pin_access;

  bool routed() const { return !pin_access.empty(); }
  /// Highest metal layer used by any wire or via stack of this net.
  int highest_layer() const;
  /// Total wire length in GCell edges.
  long total_wire_gcells() const;
};

/// Geometry of the GCell grid over a die.
class GridGeometry {
 public:
  GridGeometry() = default;
  GridGeometry(geom::Rect die, geom::Dbu gcell_size);

  int nx() const { return nx_; }
  int ny() const { return ny_; }
  const geom::Rect& die() const { return die_; }
  geom::Dbu gcell_size() const { return gcell_size_; }

  GCell gcell_of(const geom::Point& p) const;
  /// DBU center of a GCell.
  geom::Point center_of(const GCell& g) const;
  /// Manhattan distance between GCell centers, in DBU.
  geom::Dbu manhattan(const GCell& a, const GCell& b) const {
    return (std::abs(a.x - b.x) + std::abs(a.y - b.y)) * gcell_size_;
  }

 private:
  geom::Rect die_;
  geom::Dbu gcell_size_ = 1;
  int nx_ = 0;
  int ny_ = 0;
};

/// Per-layer edge usage / capacity bookkeeping.
class UsageMap {
 public:
  UsageMap() = default;
  UsageMap(const tech::Technology& tech, int nx, int ny);

  /// Edge id convention: on a horizontal layer, (x, y) is the edge from
  /// GCell (x,y) to (x+1,y); on a vertical layer, to (x,y+1).
  int usage(int layer, int x, int y) const {
    return layers_[static_cast<std::size_t>(layer - 1)].at(x, y);
  }
  int capacity(int layer) const {
    return caps_[static_cast<std::size_t>(layer - 1)];
  }
  void add(int layer, int x, int y, int delta) {
    layers_[static_cast<std::size_t>(layer - 1)].at(x, y) += delta;
  }
  /// Overflow (usage above capacity) summed over all edges of `layer`.
  long overflow(int layer) const;
  /// Total usage summed over all edges of `layer`.
  long total_usage(int layer) const;

  int nx() const { return nx_; }
  int ny() const { return ny_; }

 private:
  int nx_ = 0;
  int ny_ = 0;
  std::vector<geom::Grid2D<int>> layers_;  // [layer-1]
  std::vector<int> caps_;
};

/// The whole-design routing result.
struct RouteDB {
  GridGeometry grid;
  std::vector<NetRoute> routes;  ///< indexed by NetId
  UsageMap usage;

  const NetRoute& route_of(netlist::NetId n) const {
    return routes[static_cast<std::size_t>(n)];
  }
};

}  // namespace repro::route
