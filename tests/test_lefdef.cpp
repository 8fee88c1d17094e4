#include <gtest/gtest.h>

#include <algorithm>
#include <iostream>
#include <sstream>

#include "common/diagnostics.hpp"

#include "lefdef/lefdef.hpp"
#include "splitmfg/split.hpp"
#include "synth/synth.hpp"

namespace repro::lefdef {
namespace {

TEST(Lef, RoundTripPreservesTechAndLibrary) {
  const auto tech = tech::Technology::make_default(800);
  const auto lib = netlist::Library::make_default();
  std::stringstream ss;
  write_lef(ss, tech, lib);
  common::DiagnosticSink sink;
  const auto parsed = read_lef(ss, sink);
  ASSERT_TRUE(parsed.ok()) << sink.summary();

  EXPECT_EQ(parsed->tech.num_metal_layers(), tech.num_metal_layers());
  EXPECT_EQ(parsed->tech.num_via_layers(), tech.num_via_layers());
  EXPECT_EQ(parsed->tech.gcell_size(), tech.gcell_size());
  for (int i = 1; i <= tech.num_metal_layers(); ++i) {
    EXPECT_EQ(parsed->tech.metal(i).name, tech.metal(i).name);
    EXPECT_EQ(parsed->tech.metal(i).preferred, tech.metal(i).preferred);
    EXPECT_EQ(parsed->tech.metal(i).width_mult, tech.metal(i).width_mult);
    EXPECT_EQ(parsed->tech.metal(i).capacity, tech.metal(i).capacity);
  }
  ASSERT_EQ(parsed->lib.num_cells(), lib.num_cells());
  for (int c = 0; c < lib.num_cells(); ++c) {
    const auto& a = parsed->lib.cell(c);
    const auto& b = lib.cell(c);
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.width, b.width);
    EXPECT_EQ(a.height, b.height);
    EXPECT_EQ(a.is_macro, b.is_macro);
    EXPECT_EQ(a.drive_strength, b.drive_strength);
    ASSERT_EQ(a.pins.size(), b.pins.size());
    for (std::size_t p = 0; p < a.pins.size(); ++p) {
      EXPECT_EQ(a.pins[p].name, b.pins[p].name);
      EXPECT_EQ(a.pins[p].dir, b.pins[p].dir);
      EXPECT_EQ(a.pins[p].offset, b.pins[p].offset);
    }
  }
}

TEST(Lef, ParserRejectsGarbage) {
  for (const char* text : {"FOO BAR ;\n", ""}) {
    common::DiagnosticSink sink;
    std::stringstream ss(text);
    EXPECT_FALSE(read_lef(ss, sink).ok()) << "'" << text << "'";
    EXPECT_TRUE(sink.has_errors()) << "'" << text << "'";
  }
}

class DefRoundTrip : public ::testing::Test {
 protected:
  void SetUp() override {
    synth::SynthParams params = synth::preset("sb18");
    params.num_cells = 1200;
    params.name = "defmini";
    design_ = std::make_unique<synth::SynthDesign>(synth::generate(params));
  }
  /// Parses a DEF the fixture wrote, printing the diagnostics if it fails.
  common::StatusOr<DefDesign> parse(std::istream& is) const {
    common::DiagnosticSink sink;
    auto parsed = read_def(is, design_->lib, sink);
    if (!parsed.ok()) sink.print(std::cerr);
    return parsed;
  }
  std::unique_ptr<synth::SynthDesign> design_;
};

TEST_F(DefRoundTrip, FullViewPreservesEverything) {
  std::stringstream ss;
  write_def(ss, *design_->netlist, design_->routes);
  const auto parsed = parse(ss);
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();

  EXPECT_EQ(parsed->netlist.num_cells(), design_->netlist->num_cells());
  EXPECT_EQ(parsed->netlist.num_nets(), design_->netlist->num_nets());
  EXPECT_EQ(parsed->die, design_->routes.grid.die());
  EXPECT_NO_THROW(parsed->netlist.check());

  for (netlist::CellId c = 0; c < parsed->netlist.num_cells(); ++c) {
    EXPECT_EQ(parsed->netlist.cell(c).origin,
              design_->netlist->cell(c).origin);
    EXPECT_EQ(parsed->netlist.cell(c).lib_cell,
              design_->netlist->cell(c).lib_cell);
  }
  long wires = 0, vias = 0, pwires = 0, pvias = 0;
  for (netlist::NetId n = 0; n < parsed->netlist.num_nets(); ++n) {
    wires += static_cast<long>(design_->routes.route_of(n).wires.size());
    vias += static_cast<long>(design_->routes.route_of(n).vias.size());
    pwires += static_cast<long>(parsed->routes[static_cast<std::size_t>(n)].wires.size());
    pvias += static_cast<long>(parsed->routes[static_cast<std::size_t>(n)].vias.size());
  }
  EXPECT_EQ(wires, pwires);
  EXPECT_EQ(vias, pvias);
}

TEST_F(DefRoundTrip, FeolTruncationCutsAtSplitLayer) {
  const int split = 6;
  std::stringstream ss;
  write_def(ss, *design_->netlist, design_->routes, split);
  const auto parsed = parse(ss);
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  long kept_vias = 0;
  for (const auto& nr : parsed->routes) {
    for (const auto& w : nr.wires) EXPECT_LE(w.layer, split);
    for (const auto& v : nr.vias) EXPECT_LE(v.via_layer, split);
    kept_vias += static_cast<long>(nr.vias.size());
  }
  EXPECT_GT(kept_vias, 0);
  // The FEOL view keeps the vias *at* the split layer - those are the
  // v-pins the attacker sees.
  long split_vias = 0;
  for (const auto& nr : parsed->routes) {
    for (const auto& v : nr.vias) split_vias += (v.via_layer == split);
  }
  EXPECT_GT(split_vias, 0);
}

TEST_F(DefRoundTrip, ChallengeFromParsedDefMatchesInMemoryChallenge) {
  // The attacker-side flow: parse the full DEF, rebuild the route DB and
  // cut it. Must agree with the in-memory challenge.
  std::stringstream ss;
  write_def(ss, *design_->netlist, design_->routes);
  const auto parsed = parse(ss);
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  const route::RouteDB db = to_route_db(*parsed, 800);

  const auto mem = splitmfg::make_challenge(*design_->netlist,
                                            design_->routes, 8);
  const auto file = splitmfg::make_challenge(parsed->netlist, db, 8);
  ASSERT_EQ(file.num_vpins(), mem.num_vpins());
  EXPECT_EQ(file.num_matching_pairs(), mem.num_matching_pairs());
  for (int v = 0; v < mem.num_vpins(); ++v) {
    EXPECT_EQ(file.vpin(v).pos, mem.vpin(v).pos);
    EXPECT_DOUBLE_EQ(file.vpin(v).wirelength, mem.vpin(v).wirelength);
    EXPECT_DOUBLE_EQ(file.vpin(v).in_area, mem.vpin(v).in_area);
    EXPECT_DOUBLE_EQ(file.vpin(v).out_area, mem.vpin(v).out_area);
  }
}

TEST_F(DefRoundTrip, FeolChallengeHasSameVpinsButNoGroundTruth) {
  // The attacker-visible FEOL view must expose exactly the same v-pins
  // (with identical below-split features) as the full view, while carrying
  // no BEOL ground truth.
  const int split = 8;
  std::stringstream full_ss, feol_ss;
  write_def(full_ss, *design_->netlist, design_->routes);
  write_def(feol_ss, *design_->netlist, design_->routes, split);
  const auto full = parse(full_ss);
  const auto feol = parse(feol_ss);
  ASSERT_TRUE(full.ok()) << full.status().to_string();
  ASSERT_TRUE(feol.ok()) << feol.status().to_string();

  const auto full_ch =
      splitmfg::make_challenge(full->netlist, to_route_db(*full, 800), split);
  const auto feol_ch =
      splitmfg::make_challenge(feol->netlist, to_route_db(*feol, 800), split);

  ASSERT_EQ(feol_ch.num_vpins(), full_ch.num_vpins());
  EXPECT_EQ(feol_ch.num_matching_pairs(), 0);
  EXPECT_GT(full_ch.num_matching_pairs(), 0);
  for (int v = 0; v < full_ch.num_vpins(); ++v) {
    EXPECT_EQ(feol_ch.vpin(v).pos, full_ch.vpin(v).pos);
    EXPECT_DOUBLE_EQ(feol_ch.vpin(v).wirelength, full_ch.vpin(v).wirelength);
    EXPECT_DOUBLE_EQ(feol_ch.vpin(v).in_area, full_ch.vpin(v).in_area);
    EXPECT_DOUBLE_EQ(feol_ch.vpin(v).out_area, full_ch.vpin(v).out_area);
    EXPECT_DOUBLE_EQ(feol_ch.vpin(v).rc, full_ch.vpin(v).rc);
  }
}

TEST(Lef, TruncatedFileYieldsDiagnosticWithLineNumber) {
  const auto tech = tech::Technology::make_default(800);
  const auto lib = netlist::Library::make_default();
  std::stringstream ss;
  write_lef(ss, tech, lib);
  const std::string text = ss.str();
  // Cut inside the first MACRO body.
  const std::size_t cut = text.find("MACRO") + 40;
  ASSERT_LT(cut, text.size());
  const std::string truncated = text.substr(0, cut);
  const long last_line =
      std::count(truncated.begin(), truncated.end(), '\n');

  common::DiagnosticSink sink("trunc.lef");
  std::istringstream is(truncated);
  const auto r = read_lef(is, sink);
  EXPECT_FALSE(r.ok());
  ASSERT_TRUE(sink.has_errors());
  const common::Diagnostic* first = sink.first_error();
  ASSERT_NE(first, nullptr);
  // The diagnostic points at the line where the input ran out.
  EXPECT_GE(first->line, static_cast<int>(last_line));
  EXPECT_EQ(first->file, "trunc.lef");
  EXPECT_FALSE(first->code.empty());
}

TEST(Lef, MissingGcellsizeYieldsDiagnostic) {
  const auto tech = tech::Technology::make_default(800);
  const auto lib = netlist::Library::make_default();
  std::stringstream ss;
  write_lef(ss, tech, lib);
  std::string text = ss.str();
  const std::size_t pos = text.find("GCELLSIZE");
  ASSERT_NE(pos, std::string::npos);
  text.erase(pos, text.find('\n', pos) - pos + 1);

  common::DiagnosticSink sink;
  std::istringstream is(text);
  const auto r = read_lef(is, sink);
  EXPECT_FALSE(r.ok());
  bool found = false;
  for (const auto& d : sink.diagnostics()) {
    found |= (d.code == "lef.missing_gcellsize");
  }
  EXPECT_TRUE(found) << sink.summary();
}

TEST(Def, UnknownMacroYieldsDiagnosticAtOffendingLine) {
  const auto lib = std::make_shared<const netlist::Library>(
      netlist::Library::make_default());
  const std::string text =
      "DESIGN x ;\n"
      "DIEAREA ( 0 0 ) ( 100000 100000 ) ;\n"
      "COMPONENTS 2 ;\n"
      "- u1 INV_X1 ( 100 100 ) ;\n"
      "- u2 NOSUCHMACRO ( 200 200 ) ;\n"
      "END COMPONENTS\n"
      "NETS 0 ;\n"
      "END NETS\n"
      "END DESIGN\n";
  common::DiagnosticSink sink("x.def");
  std::istringstream is(text);
  const auto r = read_def(is, lib, sink);
  EXPECT_FALSE(r.ok());
  bool found = false;
  for (const auto& d : sink.diagnostics()) {
    if (d.code == "def.unknown_macro") {
      found = true;
      EXPECT_EQ(d.line, 5);
      EXPECT_NE(d.message.find("NOSUCHMACRO"), std::string::npos);
    }
  }
  EXPECT_TRUE(found) << sink.summary();
}

TEST(Def, ParserReportsLineNumbers) {
  const auto lib = std::make_shared<const netlist::Library>(
      netlist::Library::make_default());
  std::stringstream ss("DESIGN x ;\nGARBAGE\n");
  common::DiagnosticSink sink;
  EXPECT_FALSE(read_def(ss, lib, sink).ok());
  const common::Diagnostic* first = sink.first_error();
  ASSERT_NE(first, nullptr) << sink.summary();
  EXPECT_EQ(first->line, 2) << first->message;
}

}  // namespace
}  // namespace repro::lefdef
