// Layout validation for third-party DEF input.
//
// The parser guarantees *syntactic* health; this module checks the
// *semantic* health of a parsed design before it is allowed near the
// feature extractor: coordinates on the routing grid, layers inside the
// technology stack, routes aligned with nets, finite feature values. Every
// defect is classified:
//   * fatal      — the design cannot be used (degenerate die, bad split
//                  layer, route table misaligned with the netlist);
//   * repairable — auto-repaired in place when `ValidationOptions::repair`
//                  is set (off-die cells clamped, out-of-stack / off-grid /
//                  diagonal segments dropped, duplicate segments deduped,
//                  unordered endpoints swapped, non-finite features
//                  zeroed); without repair these count as fatal;
//   * ignorable  — reported (note/warning) and left alone (zero-length
//                  stubs, dangling nets, v-pins with no below-split
//                  fragment, multiple drivers).
// Diagnostics go to the caller's DiagnosticSink; the ValidationReport
// summarises what was found / repaired so batch loaders can log one line
// per design.
#pragma once

#include <optional>
#include <string>

#include "common/diagnostics.hpp"
#include "lefdef/lefdef.hpp"
#include "splitmfg/split.hpp"

namespace repro::splitmfg {

struct ValidationOptions {
  int num_metal_layers = 9;     ///< highest legal wire layer
  int num_via_layers = 8;       ///< highest legal via layer
  geom::Dbu gcell_size = 0;     ///< routing grid pitch; must be > 0
  std::optional<int> split_layer;  ///< enables below-split checks
  bool repair = true;  ///< apply auto-repairs; false = report only, and
                       ///< repairable defects become fatal
};

/// Per-design validation outcome. `ok()` means the (possibly repaired)
/// design is safe to hand to make_challenge / the feature extractor.
struct ValidationReport {
  int fatal = 0;
  int repaired = 0;
  int ignored = 0;

  // Repair breakdown.
  int cells_clamped = 0;
  int wires_dropped = 0;
  int vias_dropped = 0;
  int duplicates_removed = 0;
  int endpoints_swapped = 0;

  bool ok() const { return fatal == 0; }
  /// "ok (3 repaired, 1 ignored)" / "FAILED (2 fatal defects)"
  std::string summary() const;
};

/// Validates (and with `opt.repair` fixes up) a parsed DEF design in
/// place. Never throws.
ValidationReport validate_design(lefdef::DefDesign& def,
                                 const ValidationOptions& opt,
                                 common::DiagnosticSink& sink);

}  // namespace repro::splitmfg
