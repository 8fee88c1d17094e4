// Gate-level netlist: placed cell instances and the nets connecting them.
//
// This is the network the untrusted foundry reconstructs from the layout
// file: cell positions, cell types (hence areas / pin directions) and, after
// routing, the per-layer route fragments of every net.
#pragma once

#include <cassert>
#include <memory>
#include <string>
#include <vector>

#include "geom/geom.hpp"
#include "netlist/library.hpp"

namespace repro::netlist {

using CellId = std::int32_t;
using NetId = std::int32_t;
inline constexpr CellId kInvalidCell = -1;
inline constexpr NetId kInvalidNet = -1;

/// A connection point: pin `lib_pin` (index into the LibCell's pin list) of
/// cell instance `cell`.
struct PinRef {
  CellId cell = kInvalidCell;
  int lib_pin = -1;

  friend bool operator==(const PinRef&, const PinRef&) = default;
};

/// A net: one driver pin plus load pins.
struct Net {
  std::string name;
  std::vector<PinRef> pins;  ///< all pins; `driver` indexes into this
  int driver = -1;           ///< index into `pins`, -1 if undriven

  int degree() const { return static_cast<int>(pins.size()); }
  bool has_driver() const { return driver >= 0; }
};

/// A placed cell instance.
struct CellInst {
  std::string name;
  int lib_cell = -1;           ///< index into the Library
  geom::Point origin;          ///< lower-left corner, DBU
};

/// The netlist. Owns instances and nets; shares an immutable Library.
class Netlist {
 public:
  explicit Netlist(std::shared_ptr<const Library> lib, std::string name = "")
      : lib_(std::move(lib)), name_(std::move(name)) {
    assert(lib_ != nullptr);
  }

  const std::string& name() const { return name_; }
  const Library& library() const { return *lib_; }

  CellId add_cell(std::string inst_name, int lib_cell, geom::Point origin);
  NetId add_net(Net net);

  int num_cells() const { return static_cast<int>(cells_.size()); }
  int num_nets() const { return static_cast<int>(nets_.size()); }

  const CellInst& cell(CellId id) const {
    assert(id >= 0 && id < num_cells());
    return cells_[static_cast<std::size_t>(id)];
  }
  CellInst& mutable_cell(CellId id) {
    assert(id >= 0 && id < num_cells());
    return cells_[static_cast<std::size_t>(id)];
  }
  const Net& net(NetId id) const {
    assert(id >= 0 && id < num_nets());
    return nets_[static_cast<std::size_t>(id)];
  }

  const LibCell& lib_cell_of(CellId id) const {
    return lib_->cell(cell(id).lib_cell);
  }

  /// Absolute DBU position of an instance pin.
  geom::Point pin_position(const PinRef& p) const;
  /// Direction of an instance pin.
  PinDir pin_direction(const PinRef& p) const;

  /// Bounding box of all placed cells.
  geom::Rect bounding_box() const;

  /// Validates structural invariants (pin refs in range, at most one driver
  /// per net, nets have >= 2 pins). Throws std::runtime_error on violation.
  void check() const;

 private:
  std::shared_ptr<const Library> lib_;
  std::string name_;
  std::vector<CellInst> cells_;
  std::vector<Net> nets_;
};

}  // namespace repro::netlist
