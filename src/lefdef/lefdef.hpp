// Simplified LEF/DEF-style layout exchange.
//
// The attack model says the untrusted foundry receives a layout *file* and
// reconstructs the partially-connected network from it. This module provides
// that code path: a LEF-flavoured technology+library writer/reader and a
// DEF-flavoured design writer/reader that carries placement and the routed
// (GCell-granularity) wires and vias of every net. The DEF writer can
// truncate the design at a split layer, producing exactly the FEOL view the
// attacker holds: wires on metals <= L and vias on via layers <= L (the
// vias *at* L are the v-pins).
//
// The grammar is a strict, line-oriented subset of real LEF/DEF; see
// write_lef / write_def for the productions.
//
// Each format has one parser entry point, and it never throws. It
// recovers from malformed lines where the section structure allows it,
// collects every finding in the caller's DiagnosticSink (severity, code,
// file, line, message), and returns a failing Status if anything at error
// severity was reported. Numeric tokens are range-checked, so garbage
// input can not smuggle wrapped or absurd coordinates into the route
// database.
#pragma once

#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/diagnostics.hpp"
#include "common/status.hpp"
#include "netlist/netlist.hpp"
#include "route/route_db.hpp"
#include "tech/tech.hpp"

namespace repro::lefdef {

/// Writes technology layers and the cell library in LEF-style syntax.
void write_lef(std::ostream& os, const tech::Technology& tech,
               const netlist::Library& lib);

struct LefContents {
  tech::Technology tech;
  netlist::Library lib;
};

/// Parses what write_lef produced, reporting every problem into `sink`.
/// Never throws; returns a failing Status (and no contents) if any
/// error-severity diagnostic was produced.
common::StatusOr<LefContents> read_lef(std::istream& is,
                                       common::DiagnosticSink& sink);

/// A parsed DEF design: netlist (cells placed, nets with pins) plus the
/// routed geometry per net.
struct DefDesign {
  netlist::Netlist netlist;
  std::vector<route::NetRoute> routes;  ///< indexed by NetId
  geom::Rect die;
  geom::Dbu gcell_size = 0;
};

/// Writes the placed-and-routed design in DEF-style syntax. If
/// `split_layer` is set, emits the FEOL view only: wire segments on metal
/// layers <= split_layer and vias on via layers <= split_layer.
void write_def(std::ostream& os, const netlist::Netlist& nl,
               const route::RouteDB& db,
               std::optional<int> split_layer = std::nullopt);

/// Parses what write_def produced. `lib` must contain every referenced
/// macro. Never throws; recovers per line where possible (a malformed
/// component, net, or route line is reported and skipped; nets whose pin
/// list was damaged below 2 pins are dropped with a warning) and
/// cross-checks the declared COMPONENTS/NETS counts against what survived,
/// so silent data loss is always surfaced as a diagnostic.
common::StatusOr<DefDesign> read_def(std::istream& is,
                                     std::shared_ptr<const netlist::Library> lib,
                                     common::DiagnosticSink& sink);

/// Rebuilds a routing database from a parsed DEF: grid geometry from the
/// die and GCell size, routes as parsed, and pin-access records recomputed
/// from the netlist pin positions. The usage map is left empty (it is a
/// router-side artifact and not part of the exchange format).
route::RouteDB to_route_db(const DefDesign& def, geom::Dbu gcell_size);

}  // namespace repro::lefdef
