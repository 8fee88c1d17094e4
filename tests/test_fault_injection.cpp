// Fault-injection suite for the LEF/DEF ingestion path.
//
// Round-trips a small synthetic design through the writers, then feeds
// every corruption from tests/fault_injection.hpp (truncation, line
// deletion/duplication/swap, token mangling, numeric and layer corruption,
// degenerate files) to the Status-returning parsers. The contract under
// test: each corruption either yields a design that survives validation
// and challenge extraction, or a structured diagnostic — never an escaped
// exception, crash, hang, or silent empty result.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "common/diagnostics.hpp"
#include "common/status.hpp"
#include "core/pipeline.hpp"
#include "fault_injection.hpp"
#include "lefdef/lefdef.hpp"
#include "splitmfg/split.hpp"
#include "splitmfg/validate.hpp"
#include "synth/synth.hpp"
#include "tech/tech.hpp"

namespace repro {
namespace {

constexpr geom::Dbu kGcell = 800;
constexpr int kSplit = 8;

// One shared design for the whole suite: generation + routing is the
// expensive part, the corruptions themselves are cheap string edits.
class FaultInjection : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    synth::SynthParams params = synth::preset("sb18");
    params.num_cells = 350;
    params.name = "faulty";
    design_ = new synth::SynthDesign(synth::generate(params));
    tech_ = new tech::Technology(tech::Technology::make_default(kGcell));

    std::stringstream lef_ss;
    lefdef::write_lef(lef_ss, *tech_, *design_->lib);
    lef_text_ = new std::string(lef_ss.str());

    std::stringstream full_ss;
    lefdef::write_def(full_ss, *design_->netlist, design_->routes);
    full_def_text_ = new std::string(full_ss.str());

    std::stringstream feol_ss;
    lefdef::write_def(feol_ss, *design_->netlist, design_->routes, kSplit);
    feol_def_text_ = new std::string(feol_ss.str());
  }

  static void TearDownTestSuite() {
    delete design_;
    delete tech_;
    delete lef_text_;
    delete full_def_text_;
    delete feol_def_text_;
    design_ = nullptr;
    tech_ = nullptr;
    lef_text_ = feol_def_text_ = full_def_text_ = nullptr;
  }

  /// Runs one corrupted DEF through the full ingestion path: parse,
  /// validate (with repair), rebuild the route DB, cut the challenge. Any
  /// escaped exception is a test failure attributed to the corruption.
  static void ingest_def(const repro::testing::Corruption& c) {
    common::DiagnosticSink sink(c.name);
    try {
      std::istringstream is(c.text);
      common::StatusOr<lefdef::DefDesign> r =
          lefdef::read_def(is, design_->lib, sink);
      if (!r.ok()) {
        EXPECT_TRUE(sink.has_errors())
            << c.name << ": failing Status without a diagnostic";
        return;
      }
      splitmfg::ValidationOptions vopt;
      vopt.num_metal_layers = tech_->num_metal_layers();
      vopt.num_via_layers = tech_->num_via_layers();
      vopt.gcell_size = kGcell;
      vopt.split_layer = kSplit;
      vopt.repair = true;
      const splitmfg::ValidationReport rep =
          splitmfg::validate_design(*r, vopt, sink);
      if (!rep.ok()) {
        EXPECT_TRUE(sink.has_errors())
            << c.name << ": failed validation without a diagnostic";
        return;
      }
      const route::RouteDB db = lefdef::to_route_db(*r, kGcell);
      const auto ch = splitmfg::make_challenge(r->netlist, db, kSplit);
      (void)ch;
    } catch (const std::exception& e) {
      ADD_FAILURE() << c.name << ": exception escaped ingestion: "
                    << e.what();
    } catch (...) {
      ADD_FAILURE() << c.name << ": non-std exception escaped ingestion";
    }
  }

  static synth::SynthDesign* design_;
  static tech::Technology* tech_;
  static std::string* lef_text_;
  static std::string* full_def_text_;
  static std::string* feol_def_text_;
};

synth::SynthDesign* FaultInjection::design_ = nullptr;
tech::Technology* FaultInjection::tech_ = nullptr;
std::string* FaultInjection::lef_text_ = nullptr;
std::string* FaultInjection::full_def_text_ = nullptr;
std::string* FaultInjection::feol_def_text_ = nullptr;

TEST_F(FaultInjection, BatteryCoversAtLeastHundredDistinctCorruptions) {
  std::set<std::string> names;
  for (const auto& c : repro::testing::make_corruptions(*lef_text_, "lef"))
    names.insert(c.name);
  for (const auto& c :
       repro::testing::make_corruptions(*full_def_text_, "def"))
    names.insert(c.name);
  for (const auto& c :
       repro::testing::make_corruptions(*feol_def_text_, "feol"))
    names.insert(c.name);
  EXPECT_GE(names.size(), 100u);
}

TEST_F(FaultInjection, CorruptedLefNeverEscapes) {
  for (const auto& c :
       repro::testing::make_corruptions(*lef_text_, "lef")) {
    common::DiagnosticSink sink(c.name);
    try {
      std::istringstream is(c.text);
      common::StatusOr<lefdef::LefContents> r = lefdef::read_lef(is, sink);
      if (r.ok()) {
        // A parse that survives must hand back a coherent stack; the
        // Technology invariants (vias + 1 == metals) already held at
        // construction, or we would have crashed on the active assert.
        EXPECT_GT(r->tech.num_metal_layers(), 0) << c.name;
        EXPECT_GT(r->tech.gcell_size(), 0) << c.name;
      } else {
        EXPECT_TRUE(sink.has_errors())
            << c.name << ": failing Status without a diagnostic";
        const common::Diagnostic* first = sink.first_error();
        ASSERT_NE(first, nullptr) << c.name;
        EXPECT_FALSE(first->code.empty()) << c.name;
      }
    } catch (const std::exception& e) {
      ADD_FAILURE() << c.name << ": exception escaped read_lef: "
                    << e.what();
    }
  }
}

TEST_F(FaultInjection, CorruptedFullDefNeverEscapes) {
  for (const auto& c :
       repro::testing::make_corruptions(*full_def_text_, "def")) {
    ingest_def(c);
  }
}

TEST_F(FaultInjection, CorruptedFeolDefNeverEscapes) {
  for (const auto& c :
       repro::testing::make_corruptions(*feol_def_text_, "feol")) {
    ingest_def(c);
  }
}

TEST_F(FaultInjection, MultipleDefectsAreAllCollected) {
  // Three independently bad components: the parser must recover per line
  // and report each one, not stop at the first.
  const std::string text =
      "DESIGN multi ;\n"
      "DIEAREA ( 0 0 ) ( 100000 100000 ) ;\n"
      "COMPONENTS 3 ;\n"
      "- u1 NOSUCHMACRO ( 100 100 ) ;\n"
      "- u2 INV_X1 ( bogus 200 ) ;\n"
      "- u3 NOSUCHEITHER ( 300 300 ) ;\n"
      "END COMPONENTS\n"
      "NETS 0 ;\n"
      "END NETS\n"
      "END DESIGN\n";
  const auto lib = std::make_shared<const netlist::Library>(
      netlist::Library::make_default());
  common::DiagnosticSink sink("multi.def");
  std::istringstream is(text);
  const auto r = lefdef::read_def(is, lib, sink);
  EXPECT_FALSE(r.ok());
  EXPECT_GE(sink.num_errors(), 3u) << sink.summary();
  // Each finding carries the offending line.
  std::set<int> lines;
  for (const auto& d : sink.diagnostics()) {
    if (d.severity >= common::Severity::kError) lines.insert(d.line);
  }
  EXPECT_TRUE(lines.count(4)) << sink.summary();
  EXPECT_TRUE(lines.count(5)) << sink.summary();
  EXPECT_TRUE(lines.count(6)) << sink.summary();
}

TEST_F(FaultInjection, DiagnosticFloodIsCappedNotFatal) {
  // Thousands of bad lines: the sink caps storage, the parser caps the
  // error count and aborts with a structured "too many errors" fatal
  // instead of grinding through the whole flood.
  std::string text = "DESIGN flood ;\n"
                     "DIEAREA ( 0 0 ) ( 100000 100000 ) ;\n"
                     "COMPONENTS 5000 ;\n";
  for (int i = 0; i < 5000; ++i) {
    text += "- u" + std::to_string(i) + " NOSUCH ( 0 0 ) ;\n";
  }
  text += "END COMPONENTS\nNETS 0 ;\nEND NETS\nEND DESIGN\n";
  const auto lib = std::make_shared<const netlist::Library>(
      netlist::Library::make_default());
  common::DiagnosticSink sink("flood.def");
  std::istringstream is(text);
  const auto r = lefdef::read_def(is, lib, sink);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(sink.has_errors());
  EXPECT_LE(sink.size(), 1024u);  // storage cap respected
}

class BatchIsolation : public ::testing::Test {
 protected:
  void SetUp() override {
    synth::SynthParams params = synth::preset("sb18");
    params.num_cells = 250;
    params.name = "batch";
    design_ = std::make_unique<synth::SynthDesign>(synth::generate(params));
    params = synth::preset("sb5");
    params.num_cells = 250;
    params.name = "other";
    other_design_ =
        std::make_unique<synth::SynthDesign>(synth::generate(params));
    tech_ = std::make_unique<tech::Technology>(
        tech::Technology::make_default(kGcell));

    std::stringstream def_ss;
    lefdef::write_def(def_ss, *design_->netlist, design_->routes);
    def_text_ = def_ss.str();

    // One directory per test: ctest runs the tests in parallel
    // processes, which would otherwise rewrite each other's files.
    dir_ = ::testing::TempDir() + "/batch_isolation_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::create_directories(dir_);
    good1_ = dir_ + "/good1.def";
    bad_ = dir_ + "/bad.def";
    good2_ = dir_ + "/good2.def";
    write_file(good1_, def_text_);
    // Truncate mid-file: unrecoverable, the design must be skipped.
    write_file(bad_, def_text_.substr(0, def_text_.size() / 2));
    write_file(good2_, def_text_);
    lef_ = dir_ + "/tech.lef";
    std::stringstream lef_ss;
    lefdef::write_lef(lef_ss, *tech_, *design_->lib);
    write_file(lef_, lef_ss.str());
    other_ = dir_ + "/other.def";
    std::stringstream other_ss;
    lefdef::write_def(other_ss, *other_design_->netlist,
                      other_design_->routes);
    write_file(other_, other_ss.str());
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  static void write_file(const std::string& path, const std::string& text) {
    std::ofstream os(path);
    ASSERT_TRUE(os.is_open()) << path;
    os << text;
  }

  lefdef::LefContents lef() const {
    return lefdef::LefContents{*tech_, *design_->lib};
  }

  /// The LEF/DEF files of this fixture as a tool's suite flags.
  core::SuiteSource source(std::vector<std::string> train,
                           std::string victim) const {
    core::SuiteSource s;
    s.lef = lef_;
    s.train = std::move(train);
    s.victim = std::move(victim);
    return s;
  }

  std::unique_ptr<synth::SynthDesign> design_, other_design_;
  std::unique_ptr<tech::Technology> tech_;
  std::string def_text_, dir_, good1_, bad_, good2_, lef_, other_;
};

/// Field-by-field equality of two cut designs.
void expect_same_challenge(const splitmfg::SplitChallenge& got,
                           const splitmfg::SplitChallenge& want) {
  EXPECT_EQ(got.design_name, want.design_name);
  EXPECT_EQ(got.split_layer, want.split_layer);
  EXPECT_EQ(got.die, want.die);
  ASSERT_EQ(got.num_vpins(), want.num_vpins()) << want.design_name;
  for (int v = 0; v < want.num_vpins(); ++v) {
    const splitmfg::Vpin& a = got.vpin(v);
    const splitmfg::Vpin& b = want.vpin(v);
    EXPECT_EQ(a.pos, b.pos);
    EXPECT_EQ(a.pin_loc, b.pin_loc);
    EXPECT_DOUBLE_EQ(a.wirelength, b.wirelength);
    EXPECT_DOUBLE_EQ(a.in_area, b.in_area);
    EXPECT_DOUBLE_EQ(a.out_area, b.out_area);
    EXPECT_DOUBLE_EQ(a.pc, b.pc);
    EXPECT_DOUBLE_EQ(a.rc, b.rc);
    EXPECT_EQ(a.matches, b.matches);
  }
}

TEST_F(BatchIsolation, CorruptDesignIsSkippedOthersLoad) {
  core::DefLoadOptions opt;
  opt.split_layer = kSplit;
  common::DiagnosticSink sink;
  const lefdef::LefContents contents = lef();
  core::DefBatch batch = core::load_challenges_from_defs(
      {good1_, bad_, good2_}, contents, opt, sink);

  EXPECT_EQ(batch.num_loaded, 2);
  EXPECT_EQ(batch.num_skipped, 1);
  ASSERT_EQ(batch.designs.size(), 3u);
  EXPECT_TRUE(batch.designs[0].loaded);
  EXPECT_FALSE(batch.designs[1].loaded);
  EXPECT_TRUE(batch.designs[2].loaded);
  EXPECT_FALSE(batch.designs[1].status.ok());
  EXPECT_TRUE(sink.has_errors());

  auto loaded = batch.take_loaded();
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_GT(loaded[0].num_vpins(), 0);
  EXPECT_GT(loaded[1].num_vpins(), 0);
}

TEST_F(BatchIsolation, StrictModeStopsAtFirstFailure) {
  core::DefLoadOptions opt;
  opt.split_layer = kSplit;
  opt.strict = true;
  common::DiagnosticSink sink;
  const lefdef::LefContents contents = lef();
  core::DefBatch batch = core::load_challenges_from_defs(
      {good1_, bad_, good2_}, contents, opt, sink);

  EXPECT_EQ(batch.num_skipped, 1);
  EXPECT_EQ(batch.num_loaded, 1);
  // good2 was never attempted.
  EXPECT_EQ(batch.designs.size(), 2u);
}

TEST_F(BatchIsolation, MissingFileIsIsolatedToo) {
  core::DefLoadOptions opt;
  opt.split_layer = kSplit;
  common::DiagnosticSink sink;
  const lefdef::LefContents contents = lef();
  core::DefBatch batch = core::load_challenges_from_defs(
      {dir_ + "/does_not_exist.def", good1_}, contents, opt, sink);
  EXPECT_EQ(batch.num_loaded, 1);
  EXPECT_EQ(batch.num_skipped, 1);
  EXPECT_EQ(batch.designs[0].status.code(), common::StatusCode::kIoError);
}

TEST_F(BatchIsolation, SuiteLoadPutsTheVictimFirstAtEveryLayer) {
  const int layers[] = {6, 8};
  std::ostringstream log;
  const auto loaded = core::load_suites(source({good1_, other_}, other_),
                                        layers, {}, log);
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string() << log.str();
  EXPECT_EQ(loaded->train_files, 2);
  EXPECT_EQ(loaded->train_skipped, 0);
  ASSERT_EQ(loaded->suites.size(), 2u);
  for (const int layer : layers) {
    SCOPED_TRACE(layer);
    const splitmfg::SplitChallenge victim = splitmfg::make_challenge(
        *other_design_->netlist, other_design_->routes, layer);
    const splitmfg::SplitChallenge train = splitmfg::make_challenge(
        *design_->netlist, design_->routes, layer);
    const core::ChallengeSuite& suite = loaded->suites.at(layer);
    ASSERT_EQ(suite.size(), 3u);
    expect_same_challenge(suite.challenge(0), victim);
    expect_same_challenge(suite.challenge(1), train);
    expect_same_challenge(suite.challenge(2), victim);
  }
}

TEST_F(BatchIsolation, SuiteLoadSkipsOrRejectsABadTrainingDef) {
  const int layers[] = {kSplit};
  std::ostringstream log;
  const auto loaded =
      core::load_suites(source({good1_, bad_}, other_), layers, {}, log);
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
  EXPECT_EQ(loaded->train_files, 2);
  EXPECT_EQ(loaded->train_skipped, 1);
  EXPECT_EQ(loaded->suites.at(kSplit).size(), 2u);
  EXPECT_NE(log.str().find("warning: skipping training design " + bad_),
            std::string::npos)
      << log.str();

  std::ostringstream strict_log;
  EXPECT_FALSE(core::load_suites(source({good1_, bad_}, other_), layers,
                                 {.strict = true}, strict_log)
                   .ok());
}

TEST_F(BatchIsolation, SuiteLoadRejectsBadVictimLefAndLayer) {
  const int good_layer[] = {kSplit};
  const int bad_layer[] = {kSplit, 9};
  core::SuiteSource no_lef = source({good1_}, other_);
  no_lef.lef = dir_ + "/missing.lef";
  const struct {
    const char* what;
    core::SuiteSource source;
    std::span<const int> layers;
  } cases[] = {
      {"truncated victim", source({good1_}, bad_), good_layer},
      {"missing LEF", no_lef, good_layer},
      {"layer above the via stack", source({good1_}, other_), bad_layer},
  };
  for (const auto& c : cases) {
    std::ostringstream log;
    const auto loaded = core::load_suites(c.source, c.layers, {}, log);
    EXPECT_FALSE(loaded.ok()) << c.what;
    EXPECT_FALSE(loaded.status().message().empty()) << c.what;
  }
}

}  // namespace
}  // namespace repro
