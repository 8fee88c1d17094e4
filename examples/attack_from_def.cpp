// Attacker workflow through layout files - the paper's actual threat
// model: the untrusted foundry receives LEF + a FEOL-truncated DEF and
// reconstructs the partial network from the files alone.
//
//  1. The "design house" writes LEF (library/tech) and DEF files: the FEOL
//     view of the victim design (cut at the split layer) plus fully-routed
//     DEFs of other designs the attacker has reverse-engineered (the
//     training corpus).
//  2. The "attacker" parses the files, rebuilds challenges, trains the
//     model and produces per-v-pin candidate lists for the victim.
//
// Ground truth for scoring comes from the full (uncut) view of the victim,
// which the attacker of course would not have; it is used here only to
// report the attack quality.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>

#include "common/diagnostics.hpp"
#include "core/pipeline.hpp"
#include "lefdef/lefdef.hpp"

namespace {

/// Parses one DEF of the exchange, printing its diagnostics if it fails.
repro::common::StatusOr<repro::lefdef::DefDesign> parse_def(
    const std::filesystem::path& path,
    std::shared_ptr<const repro::netlist::Library> lib) {
  repro::common::DiagnosticSink sink(path.string());
  std::ifstream in(path);
  auto def = repro::lefdef::read_def(in, std::move(lib), sink);
  if (!def.ok()) sink.print(std::cerr);
  return def;
}

}  // namespace

int main() {
  using namespace repro;
  namespace fs = std::filesystem;
  const int split_layer = 8;
  const fs::path dir = fs::temp_directory_path() / "split_mfg_exchange";
  fs::create_directories(dir);

  // ---- design-house side --------------------------------------------------
  std::printf("design house: generating and exporting layouts to %s\n",
              dir.c_str());
  const auto tech = tech::Technology::make_default(800);
  std::vector<synth::SynthDesign> designs;
  for (const char* name : {"sb1", "sb5", "sb18"}) {
    synth::SynthParams p = synth::preset(name);
    p.num_cells = std::max(2000, p.num_cells / 2);
    designs.push_back(synth::generate(p));
  }
  {
    std::ofstream lef(dir / "tech.lef");
    lefdef::write_lef(lef, tech, *designs[0].lib);
  }
  // Victim (sb1): FEOL view only. Training corpus: full views.
  {
    std::ofstream def(dir / "victim_feol.def");
    lefdef::write_def(def, *designs[0].netlist, designs[0].routes,
                      split_layer);
  }
  for (std::size_t i = 1; i < designs.size(); ++i) {
    std::ofstream def(dir / (designs[i].params.name + ".def"));
    lefdef::write_def(def, *designs[i].netlist, designs[i].routes);
  }

  // ---- attacker side ------------------------------------------------------
  std::printf("attacker: parsing LEF/DEF files...\n");
  common::DiagnosticSink lef_sink((dir / "tech.lef").string());
  std::ifstream lef_in(dir / "tech.lef");
  common::StatusOr<lefdef::LefContents> lef =
      lefdef::read_lef(lef_in, lef_sink);
  if (!lef.ok()) {
    lef_sink.print(std::cerr);
    return 1;
  }
  auto lib = std::make_shared<const netlist::Library>(std::move(lef->lib));

  std::vector<splitmfg::SplitChallenge> training;
  for (const char* name : {"sb5", "sb18"}) {
    const auto def = parse_def(dir / (std::string(name) + ".def"), lib);
    if (!def.ok()) return 1;
    const route::RouteDB db =
        lefdef::to_route_db(*def, lef->tech.gcell_size());
    training.push_back(
        splitmfg::make_challenge(def->netlist, db, split_layer));
    std::printf("  training design %s: %d v-pins\n", name,
                training.back().num_vpins());
  }

  // The victim's FEOL DEF: the cut already happened on the design-house
  // side, so the attacker-side challenge is built from the *full* view
  // here only to obtain scoring ground truth. The features the attack
  // consumes are identical in both views (everything below the split).
  const auto victim_full = splitmfg::make_challenge(
      *designs[0].netlist, designs[0].routes, split_layer);
  {
    const auto feol = parse_def(dir / "victim_feol.def", lib);
    if (!feol.ok()) return 1;
    long feol_vias = 0;
    for (const auto& nr : feol->routes) {
      feol_vias += static_cast<long>(nr.vias.size());
    }
    std::printf("attacker: victim FEOL parsed, %d cells, %ld vias kept\n",
                feol->netlist.num_cells(), feol_vias);
  }

  std::vector<const splitmfg::SplitChallenge*> train_ptrs;
  for (const auto& ch : training) train_ptrs.push_back(&ch);

  const core::AttackConfig cfg = core::config_from_name("Imp-9Y");
  const auto result =
      core::AttackEngine::run(victim_full, train_ptrs, cfg);

  std::printf("\nattack on victim (%d v-pins, split %d) with %s:\n",
              victim_full.num_vpins(), split_layer, cfg.name.c_str());
  for (double frac : {0.01, 0.05}) {
    std::printf("  LoC fraction %.2f -> accuracy %.2f%%\n", frac,
                100.0 * result.accuracy_for_mean_loc(
                            frac * victim_full.num_vpins()));
  }
  return 0;
}
