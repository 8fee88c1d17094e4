#include "synth/synth.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <random>
#include <stdexcept>

namespace repro::synth {

namespace {

using geom::Dbu;
using geom::Point;
using netlist::CellId;
using netlist::PinDir;
using netlist::PinRef;

/// Ids of non-macro library cells, weighted roughly like a real design mix
/// (inverters/buffers common, flops frequent, big drives rare).
std::vector<int> weighted_cell_mix(const netlist::Library& lib,
                                   std::mt19937_64& rng, int count) {
  struct Entry {
    int id;
    double weight;
  };
  std::vector<Entry> entries;
  for (int c = 0; c < lib.num_cells(); ++c) {
    const auto& lc = lib.cell(c);
    if (lc.is_macro) continue;
    double w = 1.0;
    if (lc.name.rfind("INV", 0) == 0 || lc.name.rfind("BUF", 0) == 0) {
      w = 2.0 / lc.drive_strength;  // small drives dominate
    } else if (lc.name.rfind("DFF", 0) == 0) {
      w = 1.2 / lc.drive_strength;
    } else {
      w = 1.5 / lc.drive_strength;
    }
    entries.push_back({c, w});
  }
  std::vector<double> weights;
  for (const auto& e : entries) weights.push_back(e.weight);
  std::discrete_distribution<int> pick(weights.begin(), weights.end());
  std::vector<int> out;
  out.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    out.push_back(entries[static_cast<std::size_t>(pick(rng))].id);
  }
  return out;
}

/// Net fanout (number of loads) distribution: mostly 1-2, heavy-ish tail.
int sample_fanout(std::mt19937_64& rng) {
  std::uniform_real_distribution<double> u(0.0, 1.0);
  const double r = u(rng);
  if (r < 0.55) return 1;
  if (r < 0.77) return 2;
  if (r < 0.89) return 3;
  std::geometric_distribution<int> tail(0.5);
  return std::min(4 + tail(rng), 8);
}

}  // namespace

SynthDesign generate(const SynthParams& params) {
  if (params.num_cells < 100) {
    throw std::invalid_argument("num_cells too small for a routed design");
  }
  std::mt19937_64 rng(params.seed);

  auto lib = std::make_shared<const netlist::Library>(
      netlist::Library::make_default());

  // --- Die sizing --------------------------------------------------------
  const std::vector<int> mix = weighted_cell_mix(*lib, rng, params.num_cells);
  double cell_area = 0;
  for (int id : mix) cell_area += static_cast<double>(lib->cell(id).area());
  const auto macro_ram = lib->find("MACRO_RAM");
  const auto macro_mul = lib->find("MACRO_MUL");
  std::vector<int> macro_ids;
  for (int m = 0; m < params.num_macros; ++m) {
    macro_ids.push_back((m % 2 == 0) ? *macro_ram : *macro_mul);
  }
  double macro_area = 0;
  for (int id : macro_ids) macro_area += static_cast<double>(lib->cell(id).area());

  const double die_area = cell_area / params.utilization + macro_area * 1.3;
  const Dbu gcell = 800;
  Dbu width = static_cast<Dbu>(std::sqrt(die_area * params.aspect));
  width = (width / gcell + 1) * gcell;
  Dbu height = static_cast<Dbu>(die_area / static_cast<double>(width));
  height = (height / netlist::Library::kRowHeight + 2) *
           netlist::Library::kRowHeight;
  // Round height up to a whole number of gcells as well.
  height = ((height + gcell - 1) / gcell) * gcell;
  const geom::Rect die(0, 0, width, height);

  place::Floorplan fp;
  fp.die = die;

  auto nl = std::make_unique<netlist::Netlist>(lib, params.name);

  // --- Macros at the die edges -------------------------------------------
  std::vector<CellId> macro_cells;
  {
    std::uniform_int_distribution<int> corner(0, 3);
    Dbu margin = 2 * gcell;
    for (std::size_t m = 0; m < macro_ids.size(); ++m) {
      const auto& lc = lib->cell(macro_ids[m]);
      Point org;
      switch ((corner(rng) + static_cast<int>(m)) % 4) {
        case 0: org = {die.lo.x + margin, die.lo.y + margin}; break;
        case 1: org = {die.hi.x - lc.width - margin, die.lo.y + margin}; break;
        case 2: org = {die.lo.x + margin, die.hi.y - lc.height - margin}; break;
        default:
          org = {die.hi.x - lc.width - margin, die.hi.y - lc.height - margin};
      }
      // Keep multiple macros from stacking on the same corner.
      org.x += static_cast<Dbu>(m / 4) * (lc.width + margin);
      org.x = geom::clamp(org.x, die.lo.x, die.hi.x - lc.width);
      // Snap to row/site grid so the legalizer's footprint blocking is exact.
      org.x = (org.x / fp.site_width) * fp.site_width;
      org.y = (org.y / fp.row_height) * fp.row_height;
      macro_cells.push_back(nl->add_cell(
          "macro" + std::to_string(m), macro_ids[m], org));
    }
  }

  // --- Clustered placement ------------------------------------------------
  const int num_clusters =
      std::max(4, params.num_cells / params.cells_per_cluster);
  std::vector<Point> centers;
  {
    std::uniform_int_distribution<Dbu> ux(die.lo.x, die.hi.x);
    std::uniform_int_distribution<Dbu> uy(die.lo.y, die.hi.y);
    for (int c = 0; c < num_clusters; ++c) {
      centers.push_back({ux(rng), uy(rng)});
    }
  }
  // Neighbour clusters (4 nearest) for regional nets.
  std::vector<std::vector<int>> neighbours(
      static_cast<std::size_t>(num_clusters));
  for (int c = 0; c < num_clusters; ++c) {
    std::vector<std::pair<Dbu, int>> d;
    for (int o = 0; o < num_clusters; ++o) {
      if (o != c) d.emplace_back(geom::manhattan(centers[static_cast<std::size_t>(c)], centers[static_cast<std::size_t>(o)]), o);
    }
    std::sort(d.begin(), d.end());
    for (int k = 0; k < std::min<int>(4, static_cast<int>(d.size())); ++k) {
      neighbours[static_cast<std::size_t>(c)].push_back(d[static_cast<std::size_t>(k)].second);
    }
  }

  const double radius = params.cluster_radius_gcells * static_cast<double>(gcell);
  std::normal_distribution<double> spread(0.0, radius);
  std::uniform_int_distribution<int> pick_cluster(0, num_clusters - 1);

  std::vector<int> cluster_of;  // per std cell
  std::vector<std::vector<CellId>> cluster_cells(
      static_cast<std::size_t>(num_clusters));
  for (int i = 0; i < params.num_cells; ++i) {
    const int cl = pick_cluster(rng);
    const Point& c = centers[static_cast<std::size_t>(cl)];
    Point p{c.x + static_cast<Dbu>(spread(rng)),
            c.y + static_cast<Dbu>(spread(rng))};
    p.x = geom::clamp(p.x, die.lo.x, die.hi.x - 1);
    p.y = geom::clamp(p.y, die.lo.y, die.hi.y - 1);
    const CellId id = nl->add_cell("c" + std::to_string(i),
                                   mix[static_cast<std::size_t>(i)], p);
    cluster_of.push_back(cl);
    cluster_cells[static_cast<std::size_t>(cl)].push_back(id);
  }

  legalize(*nl, fp);

  // --- Net synthesis -------------------------------------------------------
  // Free input pins per cluster (swap-pop sampling); macros go to a global
  // pool keyed by nearest cluster.
  std::vector<std::vector<PinRef>> free_inputs(
      static_cast<std::size_t>(num_clusters));
  const auto cluster_of_cell = [&](CellId c) -> int {
    if (c >= static_cast<CellId>(macro_cells.size())) {
      return cluster_of[static_cast<std::size_t>(c) - macro_cells.size()];
    }
    // Macro: nearest cluster to its centre.
    const auto& inst = nl->cell(c);
    const auto& lc = lib->cell(inst.lib_cell);
    const Point ctr{inst.origin.x + lc.width / 2, inst.origin.y + lc.height / 2};
    int best = 0;
    Dbu bd = std::numeric_limits<Dbu>::max();
    for (int cl = 0; cl < num_clusters; ++cl) {
      const Dbu d = geom::manhattan(ctr, centers[static_cast<std::size_t>(cl)]);
      if (d < bd) {
        bd = d;
        best = cl;
      }
    }
    return best;
  };
  for (CellId c = 0; c < nl->num_cells(); ++c) {
    const auto& lc = lib->cell(nl->cell(c).lib_cell);
    const int cl = cluster_of_cell(c);
    for (int p = 0; p < static_cast<int>(lc.pins.size()); ++p) {
      if (lc.pins[static_cast<std::size_t>(p)].dir == PinDir::kInput) {
        free_inputs[static_cast<std::size_t>(cl)].push_back(PinRef{c, p});
      }
    }
  }
  std::uniform_real_distribution<double> u01(0.0, 1.0);
  const auto pop_input_from = [&](int cl, CellId avoid) -> PinRef {
    auto& pool = free_inputs[static_cast<std::size_t>(cl)];
    for (int tries = 0; tries < 8 && !pool.empty(); ++tries) {
      std::uniform_int_distribution<std::size_t> pick(0, pool.size() - 1);
      const std::size_t i = pick(rng);
      if (pool[i].cell == avoid) continue;
      const PinRef r = pool[i];
      pool[i] = pool.back();
      pool.pop_back();
      return r;
    }
    return PinRef{};  // none available
  };
  const auto pop_input_anywhere = [&](CellId avoid) -> PinRef {
    for (int tries = 0; tries < 16; ++tries) {
      const int cl = pick_cluster(rng);
      const PinRef r = pop_input_from(cl, avoid);
      if (r.cell != netlist::kInvalidCell) return r;
    }
    return PinRef{};
  };

  int net_counter = 0;
  const auto make_net = [&](CellId driver_cell, int out_pin,
                            const std::vector<PinRef>& loads) {
    if (loads.empty()) return;
    netlist::Net net;
    net.name = "n" + std::to_string(net_counter++);
    net.pins.push_back(PinRef{driver_cell, out_pin});
    net.driver = 0;
    for (const PinRef& l : loads) net.pins.push_back(l);
    nl->add_net(std::move(net));
  };

  for (CellId c = 0; c < nl->num_cells(); ++c) {
    const auto& lc = lib->cell(nl->cell(c).lib_cell);
    const int cl = cluster_of_cell(c);
    for (int p = 0; p < static_cast<int>(lc.pins.size()); ++p) {
      if (lc.pins[static_cast<std::size_t>(p)].dir != PinDir::kOutput) continue;
      if (u01(rng) > params.net_prob) continue;
      const int fanout = sample_fanout(rng);
      std::vector<PinRef> loads;
      for (int f = 0; f < fanout; ++f) {
        const double r = u01(rng);
        PinRef load;
        if (r < params.p_local) {
          load = pop_input_from(cl, c);
        } else if (r < params.p_local + params.p_regional) {
          const auto& nb = neighbours[static_cast<std::size_t>(cl)];
          if (!nb.empty()) {
            std::uniform_int_distribution<std::size_t> pick(0, nb.size() - 1);
            load = pop_input_from(nb[pick(rng)], c);
          }
        } else {
          load = pop_input_anywhere(c);
        }
        if (load.cell == netlist::kInvalidCell) load = pop_input_anywhere(c);
        if (load.cell != netlist::kInvalidCell) loads.push_back(load);
      }
      make_net(c, p, loads);
    }
  }

  // --- Bus groups (sb10-style repeated long-range patterns) ---------------
  // Each bus is a group of parallel 2-pin nets between two distant clusters,
  // driven by spare buffers placed for the purpose... we reuse existing
  // cells: pick driver cells in cluster A whose outputs were left unused.
  if (params.num_buses > 0) {
    // Collect cells whose output pin drives nothing yet.
    std::vector<bool> output_used(static_cast<std::size_t>(nl->num_cells()),
                                  false);
    for (netlist::NetId n = 0; n < nl->num_nets(); ++n) {
      const auto& net = nl->net(n);
      if (net.has_driver()) {
        output_used[static_cast<std::size_t>(
            net.pins[static_cast<std::size_t>(net.driver)].cell)] = true;
      }
    }
    for (int b = 0; b < params.num_buses; ++b) {
      const int ca = pick_cluster(rng);
      // Farthest cluster from ca.
      int cb = ca;
      Dbu bd = 0;
      for (int o = 0; o < num_clusters; ++o) {
        const Dbu d = geom::manhattan(centers[static_cast<std::size_t>(ca)],
                                      centers[static_cast<std::size_t>(o)]);
        if (d > bd) {
          bd = d;
          cb = o;
        }
      }
      std::uniform_int_distribution<int> bus_width_dist(8, 16);
      const int bus_width = bus_width_dist(rng);
      int made = 0;
      for (CellId c : cluster_cells[static_cast<std::size_t>(ca)]) {
        if (made >= bus_width) break;
        if (output_used[static_cast<std::size_t>(c)]) continue;
        const auto& lc = lib->cell(nl->cell(c).lib_cell);
        int out_pin = -1;
        for (int p = 0; p < static_cast<int>(lc.pins.size()); ++p) {
          if (lc.pins[static_cast<std::size_t>(p)].dir == PinDir::kOutput) {
            out_pin = p;
            break;
          }
        }
        if (out_pin < 0) continue;
        const PinRef load = pop_input_from(cb, c);
        if (load.cell == netlist::kInvalidCell) break;
        make_net(c, out_pin, {load});
        output_used[static_cast<std::size_t>(c)] = true;
        ++made;
      }
    }
  }

  nl->check();

  // --- Routing -------------------------------------------------------------
  tech::Technology tech = tech::Technology::make_default(gcell);
  route::RouterOptions ropt = params.router;
  ropt.seed = params.seed * 7919 + 13;
  route::GlobalRouter router(*nl, tech, ropt);

  SynthDesign out;
  out.params = params;
  out.lib = lib;
  out.routes = router.run();
  out.route_stats = router.stats();
  out.floorplan = fp;
  out.netlist = std::move(nl);
  return out;
}

SynthParams preset(const std::string& name) {
  SynthParams p;
  p.name = name;
  p.cells_per_cluster = 100;
  p.cluster_radius_gcells = 3.0;
  if (name == "sb1") {
    p.num_cells = 6000;
    p.seed = 101;
    p.p_local = 0.90;
    p.p_regional = 0.085;
    p.router.promote_prob = 0.015;
    p.num_macros = 2;
  } else if (name == "sb5") {
    p.num_cells = 8000;
    p.seed = 105;
    p.p_local = 0.875;
    p.p_regional = 0.105;
    p.router.promote_prob = 0.02;
    p.num_macros = 2;
  } else if (name == "sb10") {
    // The outlier: wide aspect, weaker locality, repeated inter-region
    // buses, more macros.
    p.num_cells = 9500;
    p.seed = 110;
    p.aspect = 2.0;
    p.p_local = 0.855;
    p.p_regional = 0.125;
    p.num_buses = 20;
    p.num_macros = 4;
    p.router.promote_prob = 0.02;
  } else if (name == "sb12") {
    // Largest and most congested.
    p.num_cells = 11000;
    p.seed = 112;
    p.utilization = 0.72;
    p.p_local = 0.855;
    p.p_regional = 0.125;
    p.router.promote_prob = 0.035;
    p.num_macros = 2;
  } else if (name == "sb18") {
    p.num_cells = 5000;
    p.seed = 118;
    p.p_local = 0.88;
    p.p_regional = 0.10;
    p.router.promote_prob = 0.025;
    p.num_macros = 2;
  } else {
    throw std::invalid_argument("unknown preset: " + name);
  }
  return p;
}

std::vector<std::string> preset_names() {
  return {"sb1", "sb5", "sb10", "sb12", "sb18"};
}

std::vector<SynthDesign> generate_benchmark_suite(double scale) {
  std::vector<SynthDesign> out;
  for (const std::string& name : preset_names()) {
    SynthParams p = preset(name);
    p.num_cells = std::max(500, static_cast<int>(p.num_cells * scale));
    out.push_back(generate(p));
  }
  return out;
}

double scale_from_env() {
  const char* s = std::getenv("REPRO_SCALE");
  const double v = s != nullptr ? std::atof(s) : 0.0;
  return v > 0 ? v : 1.0;
}

}  // namespace repro::synth
