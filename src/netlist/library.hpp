// Standard-cell library: cell types, areas, drive strengths and pin
// directions. The attack uses cell areas (InArea / OutArea features) as a
// proxy for drive strength, so the default library carries a realistic
// spread of sizes including a handful of macros.
#pragma once

#include <cassert>
#include <optional>
#include <string>
#include <vector>

#include "geom/geom.hpp"

namespace repro::netlist {

enum class PinDir { kInput, kOutput };

/// A pin of a library cell. `offset` is the pin location relative to the
/// cell origin (lower-left corner).
struct LibPin {
  std::string name;
  PinDir dir = PinDir::kInput;
  geom::Point offset;
};

/// A library cell (standard cell or macro).
struct LibCell {
  std::string name;
  geom::Dbu width = 0;
  geom::Dbu height = 0;
  int drive_strength = 1;  ///< relative drive (X1, X2, ...)
  bool is_macro = false;
  std::vector<LibPin> pins;

  geom::Dbu area() const { return width * height; }

  int num_inputs() const {
    int n = 0;
    for (const LibPin& p : pins) n += (p.dir == PinDir::kInput);
    return n;
  }
  int num_outputs() const {
    int n = 0;
    for (const LibPin& p : pins) n += (p.dir == PinDir::kOutput);
    return n;
  }
};

/// A collection of library cells, indexed both by id and by name.
class Library {
 public:
  /// Adds a cell and returns its id. Names must be unique.
  int add_cell(LibCell cell);

  int num_cells() const { return static_cast<int>(cells_.size()); }
  const LibCell& cell(int id) const {
    assert(id >= 0 && id < num_cells());
    return cells_[static_cast<std::size_t>(id)];
  }
  /// Id of the cell with the given name, or nullopt.
  std::optional<int> find(const std::string& name) const;

  /// The default library used by the synthetic benchmark generator:
  /// inverters/buffers at four drive strengths, 2-input gates, flops, and
  /// two macro blocks. Site width 100 DBU, row height 400 DBU.
  static Library make_default();

  static constexpr geom::Dbu kSiteWidth = 100;
  static constexpr geom::Dbu kRowHeight = 400;

 private:
  std::vector<LibCell> cells_;
};

}  // namespace repro::netlist
