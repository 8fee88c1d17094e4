// Synthetic "superblue-like" benchmark generator.
//
// The paper's experiments run on five ISPD-2011 superblue layouts placed and
// routed under industrial supervision. Those layouts are not shipped here,
// so this module synthesizes stand-ins that preserve the statistics the
// attack consumes: clustered placement (most nets local, a heavy tail of
// regional and global nets), macros, realistic net-degree distribution, one
// driver per net, and a full global route over the 9-layer stack with
// congestion concentrated in the lower layers. Five presets named after the
// paper's benchmarks (sb1, sb5, sb10, sb12, sb18) differ in size, locality,
// congestion pressure and - for sb10 - a deliberately distinct structure
// (inter-region buses) mirroring the outlier behaviour the paper reports
// for superblue10.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "netlist/netlist.hpp"
#include "place/placement.hpp"
#include "route/global_router.hpp"
#include "route/route_db.hpp"

namespace repro::synth {

struct SynthParams {
  std::string name = "anon";
  int num_cells = 20000;
  int num_macros = 2;
  double utilization = 0.60;   ///< std-cell area / die area
  double aspect = 1.0;         ///< die width / height
  int cells_per_cluster = 150;
  double cluster_radius_gcells = 3.5;
  /// Load locality: same cluster / neighbouring cluster / anywhere.
  double p_local = 0.80;
  double p_regional = 0.13;
  /// Probability that a cell's output pin actually drives a net.
  double net_prob = 0.92;
  /// Number of 8-16 bit inter-region "bus" groups (parallel long nets).
  int num_buses = 0;
  route::RouterOptions router;
  std::uint64_t seed = 1;
};

/// A generated, placed and routed design.
struct SynthDesign {
  SynthParams params;
  std::shared_ptr<const netlist::Library> lib;
  std::unique_ptr<netlist::Netlist> netlist;
  place::Floorplan floorplan;
  route::RouteDB routes;
  route::RouteStats route_stats;
};

/// Generates, places (clustered + legalized) and routes a design.
SynthDesign generate(const SynthParams& params);

/// Named presets mirroring the paper's five benchmarks.
SynthParams preset(const std::string& name);
std::vector<std::string> preset_names();

/// Convenience: generate all five preset designs. `scale` multiplies the
/// preset cell counts (1.0 = the calibrated default used by the benches).
std::vector<SynthDesign> generate_benchmark_suite(double scale = 1.0);

/// The suite scale the REPRO_SCALE environment variable asks for (read
/// with atof); 1.0 when it is unset or not positive. The tools' --demo
/// suites and the benches shrink with it, which keeps CI checks fast.
double scale_from_env();

}  // namespace repro::synth
