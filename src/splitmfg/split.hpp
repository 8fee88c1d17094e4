// Split-manufacturing cut: FEOL view extraction and v-pin ground truth.
//
// A split at via layer L gives the attacker all wires on metal layers <= L
// and all vias on via layers <= L. Every via *on* layer L is a v-pin. This
// module cuts a routed design at a split layer, identifies the v-pins,
// derives the ground-truth matching (which v-pins are connected to each
// other through the hidden BEOL), and extracts the per-v-pin layout
// features of paper SSIII-A:
//   (vx, vy)        v-pin coordinates on the split layer
//   W               wirelength of the below-split route fragment
//   (px, py)        average location of the connected placement-layer pins
//   InArea/OutArea  summed areas of cells reached through input/output pins
//   PC              pin density around (px, py)
//   RC              v-pin density around (vx, vy)
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "netlist/netlist.hpp"
#include "place/placement.hpp"
#include "route/route_db.hpp"

namespace repro::splitmfg {

using VpinId = std::int32_t;
inline constexpr VpinId kInvalidVpin = -1;

/// One v-pin with its extracted layout features and ground truth.
struct Vpin {
  VpinId id = kInvalidVpin;
  netlist::NetId net = netlist::kInvalidNet;
  geom::Point pos;      ///< (vx, vy): DBU centre of the via's GCell
  route::GCell gcell;

  double wirelength = 0;  ///< W: below-split fragment wirelength, DBU
  geom::Point pin_loc;    ///< (px, py)
  double in_area = 0;     ///< InArea
  double out_area = 0;    ///< OutArea
  double pc = 0;          ///< placement congestion around (px, py)
  double rc = 0;          ///< v-pin (routing) congestion around (vx, vy)

  /// Ground truth: v-pins connected to this one through the BEOL. Hidden
  /// from the attacker; used for sample generation (training designs) and
  /// for scoring (testing design).
  std::vector<VpinId> matches;

  bool drives() const { return out_area > 0; }
};

/// A challenge instance: one design cut at one split layer.
struct SplitChallenge {
  std::string design_name;
  int split_layer = 0;
  geom::Rect die;
  std::vector<Vpin> vpins;

  int num_vpins() const { return static_cast<int>(vpins.size()); }
  const Vpin& vpin(VpinId v) const {
    return vpins[static_cast<std::size_t>(v)];
  }
  /// True if v1 and v2 are connected through the BEOL.
  bool is_match(VpinId v1, VpinId v2) const;
  /// Number of ground-truth matching (unordered) pairs.
  long num_matching_pairs() const;
};

/// Cuts a routed design at `split_layer` and extracts v-pins with features
/// and ground truth. Needs the *full* route database (ground truth comes
/// from the BEOL part); an attacker-side FEOL-only variant of the feature
/// extraction is exercised via the DEF path in tests.
SplitChallenge make_challenge(const netlist::Netlist& nl,
                              const route::RouteDB& db, int split_layer);

}  // namespace repro::splitmfg
