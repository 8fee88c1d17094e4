#include "splitmfg/split.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>

namespace repro::splitmfg {

namespace {

// Congestion features: pin density PC and v-pin density RC, each
// measured over the (2r+1)x(2r+1) block of bins around its point.
constexpr geom::Dbu kPcBin = 2000;  ///< pin-density bin size (DBU)
constexpr int kPcRadius = 1;        ///< PC neighbourhood radius in bins
constexpr geom::Dbu kRcBin = 1600;  ///< v-pin-density bin size (DBU)
constexpr int kRcRadius = 2;        ///< RC neighbourhood radius in bins

/// Small union-find over dense ids.
class UnionFind {
 public:
  explicit UnionFind(int n) : parent_(static_cast<std::size_t>(n)) {
    for (int i = 0; i < n; ++i) parent_[static_cast<std::size_t>(i)] = i;
  }
  int find(int x) {
    while (parent_[static_cast<std::size_t>(x)] != x) {
      parent_[static_cast<std::size_t>(x)] =
          parent_[static_cast<std::size_t>(parent_[static_cast<std::size_t>(x)])];
      x = parent_[static_cast<std::size_t>(x)];
    }
    return x;
  }
  void unite(int a, int b) { parent_[static_cast<std::size_t>(find(a))] = find(b); }

 private:
  std::vector<int> parent_;
};

/// Maps (metal layer, gcell) -> dense node id, per net.
class NodeIndex {
 public:
  int get(int layer, const route::GCell& g) {
    const std::int64_t key = (static_cast<std::int64_t>(layer) << 42) |
                             (static_cast<std::int64_t>(g.x) << 21) |
                             static_cast<std::int64_t>(g.y);
    auto [it, inserted] = map_.try_emplace(key, next_);
    if (inserted) ++next_;
    return it->second;
  }
  int size() const { return next_; }

 private:
  std::unordered_map<std::int64_t, int> map_;
  int next_ = 0;
};

}  // namespace

bool SplitChallenge::is_match(VpinId v1, VpinId v2) const {
  const auto& m = vpin(v1).matches;
  return std::find(m.begin(), m.end(), v2) != m.end();
}

long SplitChallenge::num_matching_pairs() const {
  long total = 0;
  for (const Vpin& v : vpins) total += static_cast<long>(v.matches.size());
  return total / 2;
}

SplitChallenge make_challenge(const netlist::Netlist& nl,
                              const route::RouteDB& db, int split_layer) {
  if (split_layer < 1 || split_layer > 8) {
    throw std::invalid_argument("split_layer must be a via layer in [1, 8]");
  }
  SplitChallenge ch;
  ch.design_name = nl.name();
  ch.split_layer = split_layer;
  ch.die = db.grid.die();

  const place::PinDensityMap pin_density(nl, ch.die, kPcBin);

  // Pass 1: cut every net, find v-pins, compute below-component features
  // and ground-truth matches.
  struct PendingVpin {
    Vpin v;
  };
  for (netlist::NetId n = 0; n < nl.num_nets(); ++n) {
    const route::NetRoute& nr = db.route_of(n);

    // Collect the net's v-pins (vias exactly on the split layer).
    std::vector<route::GCell> vpin_cells;
    for (const route::Via& v : nr.vias) {
      if (v.via_layer == split_layer) vpin_cells.push_back(v.at);
    }
    if (vpin_cells.empty()) continue;

    // Build the connectivity graph of the whole net, but *without* the
    // split-layer vias: below and above parts stay separate components.
    NodeIndex nodes;
    std::vector<std::pair<int, int>> edges;
    for (const route::WireSeg& w : nr.wires) {
      if (w.horizontal()) {
        for (int x = w.a.x; x < w.b.x; ++x) {
          edges.emplace_back(nodes.get(w.layer, {x, w.a.y}),
                             nodes.get(w.layer, {x + 1, w.a.y}));
        }
        if (w.a.x == w.b.x) nodes.get(w.layer, w.a);  // degenerate stub
      } else {
        for (int y = w.a.y; y < w.b.y; ++y) {
          edges.emplace_back(nodes.get(w.layer, {w.a.x, y}),
                             nodes.get(w.layer, {w.a.x, y + 1}));
        }
      }
    }
    for (const route::Via& v : nr.vias) {
      if (v.via_layer == split_layer) continue;
      edges.emplace_back(nodes.get(v.via_layer, v.at),
                         nodes.get(v.via_layer + 1, v.at));
    }
    // Pin attachment points (metal 1 at the pin's GCell).
    for (const route::PinAccess& pa : nr.pin_access) {
      nodes.get(1, pa.gcell);
    }
    // Attachment nodes of each v-pin.
    std::vector<int> below_node, above_node;
    for (const route::GCell& g : vpin_cells) {
      below_node.push_back(nodes.get(split_layer, g));
      above_node.push_back(nodes.get(split_layer + 1, g));
    }

    UnionFind uf(nodes.size());
    for (const auto& [a, b] : edges) uf.unite(a, b);

    // Feature accumulation per below-split component.
    struct CompAgg {
      double wire_dbu = 0;
      double sum_px = 0, sum_py = 0;
      int num_pins = 0;
      double in_area = 0, out_area = 0;
    };
    std::unordered_map<int, CompAgg> agg;

    for (const route::WireSeg& w : nr.wires) {
      if (w.layer > split_layer) continue;
      const int root = uf.find(nodes.get(w.layer, w.a));
      agg[root].wire_dbu += static_cast<double>(w.length()) *
                            static_cast<double>(db.grid.gcell_size());
    }
    for (const route::PinAccess& pa : nr.pin_access) {
      const int root = uf.find(nodes.get(1, pa.gcell));
      CompAgg& a = agg[root];
      const geom::Point pp = nl.pin_position(pa.pin);
      a.sum_px += static_cast<double>(pp.x);
      a.sum_py += static_cast<double>(pp.y);
      ++a.num_pins;
      const double area =
          static_cast<double>(nl.lib_cell_of(pa.pin.cell).area());
      if (nl.pin_direction(pa.pin) == netlist::PinDir::kInput) {
        a.in_area += area;
      } else {
        a.out_area += area;
      }
    }

    // Pinless below fragments (e.g. the vertical leg of an HVH pattern
    // whose horizontal runs live above the split) still produce v-pins -
    // the attacker sees the dangling fragment and must connect it. Their
    // placement-derived features fall back to the fragment itself: the
    // connection point is the centroid of the fragment's split vias, and
    // the cell-area features are zero.
    std::unordered_map<int, std::pair<double, double>> via_centroid_sum;
    std::unordered_map<int, int> via_count;
    for (std::size_t i = 0; i < vpin_cells.size(); ++i) {
      const int broot = uf.find(below_node[i]);
      const geom::Point p = db.grid.center_of(vpin_cells[i]);
      auto& s = via_centroid_sum[broot];
      s.first += static_cast<double>(p.x);
      s.second += static_cast<double>(p.y);
      ++via_count[broot];
    }

    // Emit the net's v-pins; remember below/above component roots so the
    // ground truth can be derived.
    std::vector<VpinId> ids;
    std::vector<int> below_roots, above_roots;
    for (std::size_t i = 0; i < vpin_cells.size(); ++i) {
      const int broot = uf.find(below_node[i]);
      Vpin vp;
      vp.id = static_cast<VpinId>(ch.vpins.size());
      vp.net = n;
      vp.gcell = vpin_cells[i];
      vp.pos = db.grid.center_of(vpin_cells[i]);
      auto it = agg.find(broot);
      if (it != agg.end() && it->second.num_pins > 0) {
        const CompAgg& a = it->second;
        vp.wirelength = a.wire_dbu;
        vp.pin_loc = {static_cast<geom::Dbu>(a.sum_px / a.num_pins),
                      static_cast<geom::Dbu>(a.sum_py / a.num_pins)};
        vp.in_area = a.in_area;
        vp.out_area = a.out_area;
      } else {
        vp.wirelength = (it != agg.end()) ? it->second.wire_dbu : 0.0;
        const auto& s = via_centroid_sum[broot];
        const int cnt = via_count[broot];
        vp.pin_loc = {static_cast<geom::Dbu>(s.first / cnt),
                      static_cast<geom::Dbu>(s.second / cnt)};
      }
      vp.pc = pin_density.density_around(vp.pin_loc, kPcRadius);
      // rc is filled in pass 2 (needs all v-pins first).
      ids.push_back(vp.id);
      below_roots.push_back(broot);
      above_roots.push_back(uf.find(above_node[i]));
      ch.vpins.push_back(std::move(vp));
    }

    // Ground truth: v-pins of this net in *different* below components
    // connected through the *same* above (BEOL) component.
    for (std::size_t i = 0; i < ids.size(); ++i) {
      for (std::size_t j = i + 1; j < ids.size(); ++j) {
        if (below_roots[i] == below_roots[j]) continue;  // already joined
        if (above_roots[i] != above_roots[j]) continue;  // not direct
        ch.vpins[static_cast<std::size_t>(ids[i])].matches.push_back(ids[j]);
        ch.vpins[static_cast<std::size_t>(ids[j])].matches.push_back(ids[i]);
      }
    }
  }

  // Pass 2: v-pin (routing) congestion RC over the finished v-pin set.
  if (!ch.vpins.empty()) {
    const int nx =
        std::max<int>(1, static_cast<int>(ch.die.width() / kRcBin));
    const int ny =
        std::max<int>(1, static_cast<int>(ch.die.height() / kRcBin));
    geom::Grid2D<int> grid(nx, ny, 0);
    const auto bin_of = [&](const geom::Point& p) {
      return std::pair<int, int>(
          geom::clamp(static_cast<int>((p.x - ch.die.lo.x) / kRcBin), 0,
                      nx - 1),
          geom::clamp(static_cast<int>((p.y - ch.die.lo.y) / kRcBin), 0,
                      ny - 1));
    };
    for (const Vpin& v : ch.vpins) {
      const auto [bx, by] = bin_of(v.pos);
      ++grid.at(bx, by);
    }
    for (Vpin& v : ch.vpins) {
      const auto [bx, by] = bin_of(v.pos);
      long total = 0;
      int bins = 0;
      for (int dx = -kRcRadius; dx <= kRcRadius; ++dx) {
        for (int dy = -kRcRadius; dy <= kRcRadius; ++dy) {
          if (!grid.in_bounds(bx + dx, by + dy)) continue;
          total += grid.at(bx + dx, by + dy);
          ++bins;
        }
      }
      const double area = static_cast<double>(bins) *
                          static_cast<double>(kRcBin) *
                          static_cast<double>(kRcBin) / 1e6;
      v.rc = bins > 0 ? static_cast<double>(total) / area : 0.0;
    }
  }

  return ch;
}

}  // namespace repro::splitmfg
