#include "splitmfg/validate.hpp"

#include <algorithm>
#include <cmath>
#include <array>
#include <set>
#include <utility>

namespace repro::splitmfg {

namespace {

using common::DiagnosticSink;

/// Routes defect reports by class: fatal always rejects; repairable
/// downgrades to a warning when repair is enabled, otherwise rejects;
/// ignorable only counts.
class Reporter {
 public:
  Reporter(ValidationReport& report, const ValidationOptions& opt,
           DiagnosticSink& sink)
      : report_(report), opt_(opt), sink_(sink) {}

  void fatal(std::string code, std::string message) {
    ++report_.fatal;
    sink_.error(std::move(code), 0, std::move(message));
  }
  /// Returns true if the caller should apply the repair.
  bool repairable(std::string code, std::string message) {
    if (opt_.repair) {
      ++report_.repaired;
      sink_.warning(std::move(code), 0, std::move(message));
      return true;
    }
    ++report_.fatal;
    sink_.error(std::move(code), 0,
                std::move(message) + " (repair disabled)");
    return false;
  }
  void ignorable(std::string code, std::string message) {
    ++report_.ignored;
    sink_.note(std::move(code), 0, std::move(message));
  }

 private:
  ValidationReport& report_;
  const ValidationOptions& opt_;
  DiagnosticSink& sink_;
};

/// Largest believable die edge (10 cm at 1 DBU = 1 nm).
constexpr geom::Dbu kMaxDieExtent = 100'000'000;

using SegKey = std::array<int, 5>;

SegKey seg_key(int layer, const route::GCell& a, const route::GCell& b) {
  return {layer, a.x, a.y, b.x, b.y};
}

}  // namespace

std::string ValidationReport::summary() const {
  if (!ok()) {
    return "FAILED (" + std::to_string(fatal) + " fatal defect" +
           (fatal == 1 ? "" : "s") + ")";
  }
  if (repaired == 0 && ignored == 0) return "ok";
  return "ok (" + std::to_string(repaired) + " repaired, " +
         std::to_string(ignored) + " ignored)";
}

ValidationReport validate_design(lefdef::DefDesign& def,
                                 const ValidationOptions& opt,
                                 common::DiagnosticSink& sink) {
  ValidationReport report;
  Reporter rep(report, opt, sink);
  netlist::Netlist& nl = def.netlist;

  if (def.die.width() <= 0 || def.die.height() <= 0) {
    rep.fatal("validate.degenerate_die",
              "die has non-positive width or height");
  } else if (def.die.width() > kMaxDieExtent ||
             def.die.height() > kMaxDieExtent) {
    // A >10cm edge is corruption, not layout; admitting it would let the
    // density grids downstream allocate absurd amounts of memory.
    rep.fatal("validate.huge_die", "die extent exceeds " +
                                       std::to_string(kMaxDieExtent) +
                                       " DBU; input is corrupt");
  }
  if (opt.gcell_size <= 0) {
    rep.fatal("validate.bad_gcell_size",
              "GCell size must be positive, got " +
                  std::to_string(opt.gcell_size));
    return report;  // grid extent below would divide by zero
  }
  if (opt.split_layer &&
      (*opt.split_layer < 1 || *opt.split_layer > opt.num_via_layers)) {
    rep.fatal("validate.bad_split_layer",
              "split layer " + std::to_string(*opt.split_layer) +
                  " outside via stack [1, " +
                  std::to_string(opt.num_via_layers) + "]");
  }
  if (!report.ok()) return report;

  // Route table alignment: NetRoute i describes net i everywhere else in
  // the system, so a mismatched table would silently attach wrong geometry.
  if (def.routes.size() != static_cast<std::size_t>(nl.num_nets())) {
    if (rep.repairable("validate.route_table_mismatch",
                       "route table has " +
                           std::to_string(def.routes.size()) +
                           " entries for " + std::to_string(nl.num_nets()) +
                           " nets; resizing")) {
      def.routes.resize(static_cast<std::size_t>(nl.num_nets()));
    } else {
      return report;
    }
  }

  // Grid extents, mirroring route::GridGeometry.
  const int nx =
      std::max<int>(1, static_cast<int>(def.die.width() / opt.gcell_size));
  const int ny =
      std::max<int>(1, static_cast<int>(def.die.height() / opt.gcell_size));
  const auto on_grid = [&](const route::GCell& g) {
    return g.x >= 0 && g.x < nx && g.y >= 0 && g.y < ny;
  };

  // Cells: placements must land on the die.
  for (netlist::CellId c = 0; c < nl.num_cells(); ++c) {
    const netlist::CellInst& inst = nl.cell(c);
    if (!def.die.contains(inst.origin)) {
      if (rep.repairable("validate.off_die_cell",
                         "cell " + inst.name + " placed off-die; clamping")) {
        netlist::CellInst& m = nl.mutable_cell(c);
        m.origin.x = geom::clamp(m.origin.x, def.die.lo.x, def.die.hi.x);
        m.origin.y = geom::clamp(m.origin.y, def.die.lo.y, def.die.hi.y);
        ++report.cells_clamped;
      }
    }
  }

  // Nets: structural oddities the attack tolerates but should know about.
  for (netlist::NetId n = 0; n < nl.num_nets(); ++n) {
    const netlist::Net& net = nl.net(n);
    if (net.pins.size() < 2) {
      rep.ignorable("validate.dangling_net",
                    "net " + net.name + " has fewer than 2 pins");
    }
    int drivers = 0;
    for (const netlist::PinRef& p : net.pins) {
      drivers += (nl.pin_direction(p) == netlist::PinDir::kOutput);
    }
    if (drivers > 1) {
      rep.ignorable("validate.multiple_drivers",
                    "net " + net.name + " has " + std::to_string(drivers) +
                        " driving pins");
    }
  }

  // Routes: every segment inside the stack, on the grid, axis-aligned,
  // ordered, and unique.
  bool noted_stub = false;
  for (netlist::NetId n = 0; n < nl.num_nets(); ++n) {
    route::NetRoute& nr = def.routes[static_cast<std::size_t>(n)];
    const std::string& net_name = nl.net(n).name;

    std::vector<route::WireSeg> wires;
    wires.reserve(nr.wires.size());
    std::set<SegKey> seen_wires;
    for (route::WireSeg w : nr.wires) {
      if (w.layer < 1 || w.layer > opt.num_metal_layers) {
        if (rep.repairable("validate.wire_off_stack",
                           "net " + net_name + ": wire on metal layer " +
                               std::to_string(w.layer) +
                               " outside stack; dropping")) {
          ++report.wires_dropped;
          continue;
        }
        break;
      }
      if (w.a.x != w.b.x && w.a.y != w.b.y) {
        if (rep.repairable("validate.diagonal_wire",
                           "net " + net_name +
                               ": diagonal wire segment; dropping")) {
          ++report.wires_dropped;
          continue;
        }
        break;
      }
      if (w.b.x < w.a.x || w.b.y < w.a.y) {
        if (rep.repairable("validate.unordered_wire",
                           "net " + net_name +
                               ": wire endpoints unordered; swapping")) {
          std::swap(w.a, w.b);
          ++report.endpoints_swapped;
        } else {
          break;
        }
      }
      if (!on_grid(w.a) || !on_grid(w.b)) {
        if (rep.repairable("validate.off_grid_wire",
                           "net " + net_name +
                               ": wire outside the routing grid; dropping")) {
          ++report.wires_dropped;
          continue;
        }
        break;
      }
      if (w.a == w.b && !noted_stub) {
        rep.ignorable("validate.zero_length_wire",
                      "net " + net_name +
                          ": zero-length wire stub (kept; further stubs "
                          "not reported)");
        noted_stub = true;
      }
      if (!seen_wires.insert(seg_key(w.layer, w.a, w.b)).second) {
        if (rep.repairable("validate.duplicate_wire",
                           "net " + net_name +
                               ": duplicate wire segment; dropping")) {
          ++report.duplicates_removed;
          continue;
        }
        break;
      }
      wires.push_back(w);
    }

    std::vector<route::Via> vias;
    vias.reserve(nr.vias.size());
    std::set<SegKey> seen_vias;
    for (const route::Via& v : nr.vias) {
      if (v.via_layer < 1 || v.via_layer > opt.num_via_layers) {
        if (rep.repairable("validate.via_off_stack",
                           "net " + net_name + ": via on layer " +
                               std::to_string(v.via_layer) +
                               " outside stack; dropping")) {
          ++report.vias_dropped;
          continue;
        }
        break;
      }
      if (!on_grid(v.at)) {
        if (rep.repairable("validate.off_grid_via",
                           "net " + net_name +
                               ": via outside the routing grid; dropping")) {
          ++report.vias_dropped;
          continue;
        }
        break;
      }
      if (!seen_vias.insert(seg_key(v.via_layer, v.at, v.at)).second) {
        if (rep.repairable("validate.duplicate_via",
                           "net " + net_name +
                               ": duplicate via; dropping")) {
          ++report.duplicates_removed;
          continue;
        }
        break;
      }
      vias.push_back(v);
    }

    if (opt.repair) {
      nr.wires = std::move(wires);
      nr.vias = std::move(vias);
    }
    if (!report.ok()) return report;

    // Below-split sanity: a v-pin with no FEOL fragment at all means the
    // FEOL view lost this net's visible geometry — the attacker will see a
    // floating v-pin. Legal (feature extraction falls back to the via
    // centroid) but worth surfacing.
    if (opt.split_layer) {
      const int split = *opt.split_layer;
      const auto& ws = opt.repair ? nr.wires : wires;
      const auto& vs = opt.repair ? nr.vias : vias;
      bool has_split_via = false, has_below = !nl.net(n).pins.empty();
      for (const route::Via& v : vs) {
        has_split_via |= (v.via_layer == split);
        has_below |= (v.via_layer < split);
      }
      if (has_split_via && !has_below) {
        for (const route::WireSeg& w : ws) has_below |= (w.layer <= split);
      }
      if (has_split_via && !has_below) {
        rep.ignorable("validate.vpin_no_feol",
                      "net " + net_name +
                          ": v-pin with no below-split fragment or pin");
      }
    }
  }

  return report;
}

}  // namespace repro::splitmfg
