// Technology description: metal / via layer stack.
//
// The paper's setup (ISPD-2011 superblue) has 9 routing metal layers and 8
// via layers, with a 4x spread in wire widths across the stack and
// significant congestion variation between layers. This module captures the
// facts the attack and the router consume:
//   * per-metal-layer preferred routing direction (alternating; M9 is
//     horizontal, which is what makes DiffVpinY == 0 for matches at split 8),
//   * per-layer wire width multiplier (wider wires on top => fewer tracks),
//   * per-layer GCell edge capacity for global routing.
#pragma once

#include <cassert>
#include <string>
#include <vector>

#include "geom/geom.hpp"

namespace repro::tech {

/// Preferred routing direction of a metal layer.
enum class Direction { kHorizontal, kVertical };

/// One metal layer of the stack.
struct MetalLayer {
  std::string name;       ///< e.g. "M3"
  int index = 0;          ///< 1-based: M1..M9
  Direction preferred = Direction::kHorizontal;
  int width_mult = 1;     ///< wire width multiplier relative to M1
  int capacity = 0;       ///< routing tracks per GCell edge in the preferred
                          ///< direction (0 for layers closed to routing)
};

/// One via layer. Via layer i connects metal i and metal i+1; a *split* at
/// via layer i hands the attacker everything up to and including metal i.
struct ViaLayer {
  std::string name;  ///< e.g. "V3"
  int index = 0;     ///< 1-based: V1..V8
};

/// The technology: layer stack plus global-routing grid parameters.
class Technology {
 public:
  /// Builds the default 9-metal / 8-via stack used throughout the
  /// reproduction. `gcell_size` is the GCell edge length in DBU.
  static Technology make_default(geom::Dbu gcell_size = 2000);

  int num_metal_layers() const { return static_cast<int>(metals_.size()); }
  int num_via_layers() const { return static_cast<int>(vias_.size()); }

  const MetalLayer& metal(int index) const {  // 1-based
    assert(index >= 1 && index <= num_metal_layers());
    return metals_[static_cast<std::size_t>(index - 1)];
  }
  const ViaLayer& via(int index) const {  // 1-based
    assert(index >= 1 && index <= num_via_layers());
    return vias_[static_cast<std::size_t>(index - 1)];
  }

  geom::Dbu gcell_size() const { return gcell_size_; }

  /// True if `split_layer` (a via layer index) is the highest via layer;
  /// in that case exactly one metal layer lies above the split and the
  /// DiffVpin limit of paper SSIII-G applies.
  bool is_top_via_layer(int split_layer) const {
    return split_layer == num_via_layers();
  }

  /// Preferred direction of the single metal layer above the top via layer.
  Direction top_metal_direction() const {
    return metals_.back().preferred;
  }

  /// Direct construction for tests / custom stacks.
  Technology(std::vector<MetalLayer> metals, std::vector<ViaLayer> vias,
             geom::Dbu gcell_size);

 private:
  std::vector<MetalLayer> metals_;
  std::vector<ViaLayer> vias_;
  geom::Dbu gcell_size_ = 2000;
};

/// Human-readable direction name ("HORIZONTAL"/"VERTICAL"), used by the
/// LEF writer.
const char* to_string(Direction d);

/// Parses a direction name as written by to_string(). Throws
/// std::invalid_argument on anything else.
Direction direction_from_string(const std::string& s);

}  // namespace repro::tech
